"""The concurrent GKBMS service layer.

Section 2 of the paper makes the GKBMS a *global* knowledge base: every
DAIDA tool and designer works against one shared ConceptBase, and the
design decisions they take are documented into it concurrently.  The
kernel reproduction up to PR 4 is single-caller; this package is the
serving layer that makes it shared:

- :mod:`repro.server.session` — per-client sessions, each staging its
  uncommitted tellings with their write-set keys against a pinned read
  epoch;
- :mod:`repro.server.pipeline` — the single-writer commit pipeline:
  session commits funnel through a bounded queue into the proposition
  processor and WAL with **group commit** (one fsync per batch) and
  first-committer-wins conflict validation;
- :mod:`repro.server.admission` — the front door: bounded waiting,
  in-flight caps, deadlines, typed load shedding
  (:class:`~repro.errors.ServerOverloaded` instead of a stall);
- :mod:`repro.server.protocol` — the newline-delimited-JSON wire
  format, its op tables and the one framer both transports share;
- :mod:`repro.server.service` — :class:`GKBMSService`, the in-process
  request handler every transport shares;
- :mod:`repro.server.client` — :class:`LocalClient` (no sockets) and
  :class:`TCPClient` with the same API;
- :mod:`repro.server.tcp` — the threaded and asyncio TCP transports
  behind ``python -m repro.server``, one wire path under both.

Everything reports into the PR 4 observability substrate under the
``server.*`` metrics namespace and ``server.*`` spans.
"""

from repro.server.client import LocalClient, RetryPolicy, TCPClient
from repro.server.service import GKBMSService
from repro.server.supervisor import ServiceSupervisor
from repro.server.tcp import GKBMSServer

__all__ = [
    "GKBMSService", "GKBMSServer", "LocalClient", "RetryPolicy",
    "ServiceSupervisor", "TCPClient",
]
