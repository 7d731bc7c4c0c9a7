"""Which program functions the traced run wraps, and the per-layer metrics.

Each target names the attribute the *caller* resolves: ``client.py``
imports ``canonicalize``, ``decompositions``, ``digests_of`` and
``FullHash`` by name, and the HTTP modules import the wire codec by name,
so those module attributes are patched rather than the defining modules.
"""

from __future__ import annotations

import repro.safebrowsing.client as client_module
import repro.safebrowsing.httptransport as httptransport_module
import repro.safebrowsing.netservice as netservice_module
from repro.datastructures.vectorized import NumpyPrefixStore
from repro.hashing.digests import FullHash
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.httptransport import HttpTransport
from repro.safebrowsing.ingest import IngestionPipeline
from repro.safebrowsing.server import ServerCore
from repro.safebrowsing.storage import SQLiteServerStorage

from spans import SpanRecorder, Target

# The client's local store is the numpy backend by default; the server's
# index uses another backend, so the datastructures spans are client-side.
if client_module.DEFAULT_STORE_BACKEND != "numpy":
    raise RuntimeError("the traced run expects the numpy client store")


def _last_length(args, result) -> int:
    return len(args[-1])


def _prefixes_sent(args, result) -> int:
    return sum(len(chunk.prefixes) for update in result.updates
               for chunk in update.add_chunks + update.sub_chunks)


#: (owner, attribute, span name, count function or None).
_WRAPPED = [
    (client_module, "canonicalize", "urls.canonicalize", None),
    (client_module, "decompositions", "urls.decompose", None),
    (client_module, "digests_of", "hashing.digests", _last_length),
    (NumpyPrefixStore, "update", "datastructures.update", _last_length),
    (NumpyPrefixStore, "contains_many", "datastructures.probe", _last_length),
    (NumpyPrefixStore, "__contains__", "datastructures.probe", None),
    (SafeBrowsingClient, "check_url", "client.check", None),
    (SafeBrowsingClient, "check_urls", "client.check", None),
    (SafeBrowsingClient, "update", "client.update", None),
    (HttpTransport, "send_full_hash", "transport.full_hash", None),
    (HttpTransport, "send_update", "transport.update", None),
    (httptransport_module, "encode_message", "wireformat", None),
    (httptransport_module, "decode_message", "wireformat", None),
    (netservice_module, "encode_message", "wireformat", None),
    (netservice_module, "decode_message", "wireformat", None),
    (ServerCore, "process_full_hash", "server.process_full_hash",
     lambda args, result: len(args[1].prefixes)),
    (ServerCore, "process_update", "server.process_update", _prefixes_sent),
    (SQLiteServerStorage, "flush", "storage.flush",
     lambda args, result: result),
    (IngestionPipeline, "step", "ingest.step",
     lambda args, result: result.applied),
]


def targets(recorder: SpanRecorder) -> list[Target]:
    """Every layer boundary the traced run records, with its stand-in."""

    class TracedFullHash:
        """Stands in for ``FullHash`` where the client resolves it: the
        scalar path hashes one expression per ``FullHash.of`` call."""

        of = staticmethod(recorder.wrap(FullHash.of, "hashing.digests"))

    return [(owner, attribute,
             recorder.wrap(getattr(owner, attribute), name, count))
            for owner, attribute, name, count in _WRAPPED
            ] + [(client_module, "FullHash", TracedFullHash)]
