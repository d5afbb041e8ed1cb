"""Span recorder that wraps the public functions of the sepfront modules.

Every module-level binding of a traced function is replaced by one shared
wrapper, so a call is recorded whichever module it is made from (`cli.stft`,
`beamform.istft`, `metrics.METRIC_FUNCTIONS["si_sdr"]`, ...). Spans are kept
in memory. A forked pool worker inherits the wrappers; it writes its spans to
a spool file each time its outermost span closes, because its memory is lost
when the pool shuts down.

A span is named `<module>.<function>` after the function's home module.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import FunctionType

TRACED_MODULES = ("simulate", "dsp", "masks", "beamform", "metrics", "audio_io", "cli")

# Per-scene task functions that the CLI hands to its process pool. They are
# private, but they are the unit of pool work, so their spans give the
# pool's busy time.
POOL_TASKS = ("_simulate_one", "_separate_one", "_evaluate_one")


class Tracer:
    """Records spans as [name, start, end, parent_id, extra] in this process."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.main_pid = os.getpid()
        self.unit = None
        self._pid = self.main_pid
        self._spans = {}  # id -> span, finished spans of this process
        self._stack = []
        self._next_id = 0

    def open(self, name):
        if os.getpid() != self._pid:
            # forked worker: drop what the parent had open at fork time
            self._pid = os.getpid()
            self._spans, self._stack = {}, []
        span_id = (self._pid, self._next_id)
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, [name, time.perf_counter(), None, parent, None]

    def close(self, handle, end, extra=None):
        span_id, span = handle
        span[2], span[4] = end, extra
        self._stack.pop()
        self._spans[span_id] = span
        if not self._stack and self._pid != self.main_pid:
            self._spool()

    def _spool(self):
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as f:
            for span_id, span in self._spans.items():
                f.write(json.dumps([list(span_id), self.unit, *span]) + "\n")
        self._spans = {}

    def collect(self):
        """All finished spans as (id, unit, name, start, end, parent, extra).

        Spans the pool workers spooled are read back and removed, so each
        span is returned once.
        """
        spans = [(sid, self.unit, *span) for sid, span in self._spans.items()]
        self._spans = {}
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, "r", encoding="utf-8") as f:
                for line in f:
                    sid, unit, name, start, end, parent, extra = json.loads(line)
                    parent = tuple(parent) if parent is not None else None
                    spans.append((tuple(sid), unit, name, start, end, parent, extra))
            path.unlink()
        return spans


def self_times(spans):
    """Self time per span name: each span's duration minus its children's.

    Children of one span ran in the same single-threaded process, one after
    another inside it, so their durations add up without overlap.
    """
    child_time = defaultdict(float)
    for _, _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for sid, _, name, start, end, _, _ in spans:
        totals[name] += end - start - child_time[sid]
    return dict(totals)


def _stft_extra(args, kwargs, result):
    return {"channel_frames": result.bins.shape[0] * result.bins.shape[1]}


def _read_wav_extra(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path), "path": str(path)}


def _write_wav_extra(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _separate_mvdr_extra(args, kwargs, result):
    mask_set = args[1] if len(args) > 1 else kwargs["mask_set"]
    _, flags = result
    return {
        "passthrough": sum(f["passthrough_freqs"] for f in flags),
        "speaker_bins": len(flags) * mask_set.masks.shape[2],
    }


EXTRAS = {
    "dsp.stft": _stft_extra,
    "audio_io.read_wav": _read_wav_extra,
    "audio_io.write_wav": _write_wav_extra,
    "beamform.separate_mvdr": _separate_mvdr_extra,
}


def _wrap(tracer, name, fn):
    extra_fn = EXTRAS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        handle = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(handle, time.perf_counter())
            raise
        end = time.perf_counter()
        tracer.close(handle, end, extra_fn(args, kwargs, result) if extra_fn else None)
        return result

    return traced


def traced_functions(package):
    """{original function: span name} for the public functions to trace."""
    targets = {}
    for short in TRACED_MODULES:
        module = getattr(package, short)
        for attr, value in vars(module).items():
            if not isinstance(value, FunctionType) or value.__module__ != module.__name__:
                continue
            if not attr.startswith("_") or (short == "cli" and attr in POOL_TASKS):
                targets[value] = f"{short}.{attr}"
    return targets


class Installation:
    """Wrappers bound in place of the originals; `remove` restores them."""

    def __init__(self, tracer, package, extra_modules=()):
        targets = traced_functions(package)
        wrappers = {fn: _wrap(tracer, name, fn) for fn, name in targets.items()}
        self._patches = []  # (namespace dict, key, original)
        prefix = package.__name__ + "."
        modules = [m for key, m in list(sys.modules.items())
                   if key == package.__name__ or key.startswith(prefix)]
        for module in modules + list(extra_modules):
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if isinstance(value, dict):
                    self._patch_dict(value, wrappers)
                elif isinstance(value, FunctionType) and value in wrappers:
                    self._patches.append((namespace, key, value))
                    namespace[key] = wrappers[value]

    def _patch_dict(self, table, wrappers):
        for key, value in list(table.items()):
            if isinstance(value, FunctionType) and value in wrappers:
                self._patches.append((table, key, value))
                table[key] = wrappers[value]

    def remove(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches = []
