"""HTTP campaign service: submit/status/result over the queue + cache.

The thin service face on the campaign machinery (`ROADMAP` item 1):
a stdlib-only HTTP server (:mod:`repro.service.server`) that accepts
declarative :class:`~repro.runs.ScenarioSpec` campaigns, content-hashes
them into campaign ids, absorbs cache misses through the durable
:class:`~repro.runs.WorkQueue`, and answers repeat queries straight
from the content-addressed result store — plus a matching stdlib client
(:mod:`repro.service.client`) used by the ``pom submit``/``status``/
``fetch`` CLI verbs and the test suite.

Quickstart::

    pom serve --queue svc/q.db --cache svc/cache --port 8765 --workers 2
    pom submit sweep.json --url http://127.0.0.1:8765 --wait
    pom fetch sweep.json --url http://127.0.0.1:8765 --out results/

Every request is logged as one JSON line (latency, cache hit/miss,
queue depth) to the metrics file for scraping.
"""

from ..runs.executor import WorkerPool
from .client import ServiceClient, ServiceError
from .server import ApiError, CampaignServer, CampaignService, MetricsLog

__all__ = [
    "ApiError",
    "CampaignServer",
    "CampaignService",
    "MetricsLog",
    "ServiceClient",
    "ServiceError",
    "WorkerPool",
]
