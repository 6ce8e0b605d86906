"""Outside-in tracing of pfalab's layers.

The tracer replaces public functions with timing wrappers under the
module attribute each caller resolves at call time (for example
``pfalab.experiment.encrypt_blocks`` for the ori trial and
``pfalab.classic.encrypt_blocks`` inside DMR), records one span per call
and restores every attribute on exit.  No pfalab source changes.

Spans live in flat in-memory arrays (name, parent, start, end) and are
written out once, at the end of the run.  A span's self time is its
duration minus the time its child spans cover; a layer's self time is
the sum over its spans, so the layer self times of a pass add up to the
time the pass spent inside pfalab.
"""

from __future__ import annotations

import importlib
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("rng", "faults", "aes", "classic", "sbox_analysis", "guard",
          "attack", "experiment", "cli")


def _count_rng_bytes(counters, args, kwargs, result):
    counters["rng.bytes"] += args[1] if len(args) > 1 else kwargs["n"]


def _count_blocks(key):
    def count(counters, args, kwargs, result):
        counters[key] += int(np.shape(args[0])[0])
    return count


def _count_mismatches(counters, args, kwargs, result):
    counters["classic.dmr_mismatches"] += int(result[1].sum())


def _count_correction(counters, args, kwargs, result):
    report = result[1]
    counters["guard.sweeps"] += report.rounds_used
    counters["guard.unresolved"] += len(report.unresolved)
    counters["guard.converged"] += int(report.converged)


def _count_cli_input(counters, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    if argv and argv[0] == "attack":
        counters["cli.input_bytes"] += os.path.getsize(argv[1])


# (owner, attribute, span name, counter).  The owner is the namespace
# the caller looks the name up in, so a function imported into several
# modules is wrapped once per caller and each call is seen exactly once.
WRAPPED = (
    ("pfalab.cli", "main", "cli.main", _count_cli_input),
    ("pfalab.cli", "run_experiment", "experiment.run_experiment", None),
    ("pfalab.cli", "write_run", "experiment.write_run", None),
    ("pfalab.cli", "render_files", "experiment.render_files", None),
    ("pfalab.cli", "accumulate", "attack.accumulate",
     _count_blocks("attack.blocks")),
    ("pfalab.cli", "search_fault_values", "attack.search_fault_values", None),
    ("pfalab.cli", "recover_key_maxmin", "attack.recover_key_maxmin", None),
    ("pfalab.cli", "min_ciphertexts_to_recover",
     "attack.min_ciphertexts_to_recover", None),
    ("pfalab.experiment", "run_trial", "experiment.run_trial", None),
    ("pfalab.experiment", "render_files", "experiment.render_files", None),
    ("pfalab.experiment", "derive_seed", "rng.derive_seed", None),
    ("pfalab.experiment", "key_expand", "aes.key_expand", None),
    ("pfalab.experiment", "encrypt_blocks", "aes.encrypt_blocks",
     _count_blocks("aes.blocks")),
    ("pfalab.experiment", "random_faults", "faults.random_faults", None),
    ("pfalab.experiment", "inject", "faults.inject", None),
    ("pfalab.experiment", "classify_case", "faults.classify_case", None),
    ("pfalab.experiment", "dmr_encrypt_blocks", "classic.dmr_encrypt_blocks",
     _count_mismatches),
    ("pfalab.experiment", "bs_encrypt_blocks", "classic.bs_encrypt_blocks",
     None),
    ("pfalab.experiment", "detect", "guard.detect", None),
    ("pfalab.experiment", "correct", "guard.correct", _count_correction),
    ("pfalab.experiment", "precorrect_table", "guard.precorrect_table", None),
    ("pfalab.experiment", "build_detection_pair",
     "sbox_analysis.build_detection_pair", None),
    ("pfalab.experiment", "build_redundant_tables",
     "sbox_analysis.build_redundant_tables", None),
    ("pfalab.experiment", "accumulate", "attack.accumulate",
     _count_blocks("attack.blocks")),
    ("pfalab.experiment", "recover_key_maxmin", "attack.recover_key_maxmin",
     None),
    ("pfalab.experiment", "min_ciphertexts_to_recover",
     "attack.min_ciphertexts_to_recover", None),
    ("pfalab.classic", "encrypt_blocks", "aes.encrypt_blocks",
     _count_blocks("aes.blocks")),
    ("pfalab.classic", "decrypt_blocks", "aes.decrypt_blocks",
     _count_blocks("aes.blocks")),
    # guard.correct re-checks through the module's own detect; the
    # certify workload calls both through pfalab.guard.
    ("pfalab.guard", "detect", "guard.detect", None),
    ("pfalab.guard", "correct", "guard.correct", _count_correction),
    ("pfalab.sbox_analysis", "verify_detection",
     "sbox_analysis.verify_detection", None),
    # Set-up builds the guard's offline material through the module.
    ("pfalab.sbox_analysis", "build_detection_pair",
     "sbox_analysis.build_detection_pair", None),
    ("pfalab.sbox_analysis", "build_redundant_tables",
     "sbox_analysis.build_redundant_tables", None),
    ("pfalab.rng:Rng", "__init__", "rng.Rng", None),
    ("pfalab.rng:Rng", "randbytes", "rng.randbytes", _count_rng_bytes),
)

COUNTERS = ("rng.bytes", "aes.blocks", "attack.blocks",
            "classic.dmr_mismatches", "guard.sweeps", "guard.unresolved",
            "guard.converged", "cli.input_bytes")


def resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, counter):
        nid = self._id(name)
        stack = self._stack
        name_id, parent = self.name_id, self.parent
        start, end = self.start, self.end
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every attribute in WRAPPED; restore all of them on exit."""
        saved = []
        try:
            for owner_name, attr, name, counter in WRAPPED:
                owner = resolve_owner(owner_name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def _durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Each span's duration, and its duration minus its child
        spans', in seconds."""
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return dur, dur - child

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        if not len(self):
            return {}
        own = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                          weights=self._durations()[1],
                          minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def spans(self) -> list[tuple[str, int, float, float]]:
        """(name, parent index, duration, self time) of every span, in
        call order, so a parent comes before its children."""
        if not len(self):
            return []
        dur, own = self._durations()
        return [(self.names[n], p, d, o) for n, p, d, o in
                zip(self.name_id, self.parent, dur.tolist(), own.tolist())]

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                             minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times().items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
