"""Assert no ``pom-`` shared-memory segment is left in /dev/shm.

Usage: python .github/smoke/no_shm_leak.py

Exits non-zero listing the leaked segments; on success prints
"no leaked /dev/shm segments".
"""

import os
import sys


def main() -> int:
    leaked = [f for f in os.listdir("/dev/shm") if f.startswith("pom-")]
    if leaked:
        sys.exit(f"leaked shm segments: {leaked}")
    print("no leaked /dev/shm segments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
