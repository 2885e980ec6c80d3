"""Assert two .npz archives hold the same arrays, bit for bit.

Usage: python .github/smoke/npz_equal.py A.npz B.npz [LABEL]

Exits non-zero naming the first array that differs; on success prints
"<count> arrays identical across <LABEL>" (LABEL defaults to "A/B").
"""

import sys

import numpy as np


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    path_a, path_b = argv[:2]
    label = argv[2] if len(argv) == 3 else f"{path_a}/{path_b}"
    with np.load(path_a) as a, np.load(path_b) as b:
        if sorted(a.files) != sorted(b.files):
            sys.exit(f"{label}: array names differ")
        for k in a.files:
            if not np.array_equal(a[k], b[k]):
                sys.exit(f"{label}: {k} differs")
        print(f"{len(a.files)} arrays identical across {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
