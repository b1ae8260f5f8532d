"""Shared-memory CSR export and attach, kept for one benchmark probe.

No runtime code calls this module: the process backend's workers use the
CSR they inherit at fork (``docs/backends.md``).  The ``graph.shm.*``
layer probe in ``benchmarks/perf/layers.py`` still times an export and an
attach, so :class:`SharedGraphStore` (``export`` / ``spec`` / ``close``)
and :func:`attach_csrs` stay until that probe is deleted, together with
this module, in a change to the benchmark alone.

1. **export** — one segment per CSR array (out/in x indptr/nbr/eid/elab),
   int64-packed.  The owner registers the segments with its
   ``resource_tracker`` (the stdlib does this on create).
2. **attach** — open each segment by name, copy the values out into
   process-local plain lists, and close the mapping immediately.
3. **close** — the owner unmaps and unlinks every segment exactly once
   (idempotent).
"""

from multiprocessing import shared_memory

import numpy as np

from .csr import Csr

#: Arrays exported per CSR direction, in a fixed order.
_CSR_FIELDS = ("indptr", "nbr", "eid", "elab")
#: Bytes per exported element (everything is packed as int64).
_ELEM_BYTES = 8


class SharedGraphStore:
    """Owner-side handle on one graph's exported CSR segments.

    Create with :meth:`export`; hand :meth:`spec` (plain data) to
    :func:`attach_csrs`; call :meth:`close` once nothing can still be
    attaching.
    """

    def __init__(self):
        self._segments = []  # SharedMemory handles this process created
        self._spec = {}  # "out.indptr" etc -> (segment name, length)
        self.closed = False

    @classmethod
    def export(cls, graph):
        """Copy both CSRs of ``graph`` into fresh shared-memory segments."""
        store = cls()
        try:
            for direction, csr in (("out", graph.out_csr), ("in", graph.in_csr)):
                for name in _CSR_FIELDS:
                    store._export_array(
                        f"{direction}.{name}", getattr(csr, name)
                    )
        except BaseException:
            store.close()
            raise
        return store

    def _export_array(self, key, values):
        arr = np.asarray(values, dtype=np.int64)
        # A segment must have non-zero size even for an empty array.
        seg = shared_memory.SharedMemory(
            create=True, size=max(arr.nbytes, _ELEM_BYTES)
        )
        self._segments.append(seg)
        if len(arr):
            np.ndarray(arr.shape, dtype=np.int64, buffer=seg.buf)[:] = arr
        self._spec[key] = (seg.name, len(arr))

    def spec(self):
        """Plain-data attachment descriptor: ``{key: (name, length)}``."""
        return dict(self._spec)

    def close(self):
        """Unmap and unlink every segment (owner side; idempotent)."""
        if self.closed:
            return
        self.closed = True
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass  # already unlinked (e.g. a prior partial close)


def attach_csrs(spec):
    """Rebuild ``(out_csr, in_csr)`` from a store spec.

    Values are copied out into process-local lists and every mapping is
    closed before returning, so the owner's :meth:`SharedGraphStore.close`
    is the only unlink.
    """
    arrays = {}
    for key, (name, length) in spec.items():
        # Attaching in the owner's process (or a fork of it, which shares
        # its resource tracker) re-registers the segment idempotently, so
        # the owner's single unlink retires the entry exactly once.
        seg = shared_memory.SharedMemory(name=name)
        try:
            view = np.ndarray((length,), dtype=np.int64, buffer=seg.buf)
            arrays[key] = view.tolist()
        finally:
            seg.close()
    return (
        Csr(*(arrays[f"out.{name}"] for name in _CSR_FIELDS)),
        Csr(*(arrays[f"in.{name}"] for name in _CSR_FIELDS)),
    )

