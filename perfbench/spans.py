"""Span tracer that times tanglewalk's layers from outside the package.

While a ``Tracer`` is active, every module-level public function listed in
``LAYERS`` is replaced, in every loaded ``tanglewalk`` module that holds it,
by a wrapper that records one span (name, start, end, parent, unit) and
updates computed work counters from the call's arguments and result.  The
originals are restored on exit, so untraced runs execute the package
untouched.  Nothing inside the package is edited.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

ROTATIONS = ("RZ", "RZZ", "MULTIRZ")


def _poly_terms(args, result, parent):
    return {"terms_out": len(result.terms)}


def _diagonal(args, result, parent):
    h = args["h"]
    # Computed: one parity pass over 2^n states per Ising term.
    return {"calls": 1, "term_states": len(h.terms) << h.num_qubits}


def _simulate(args, result, parent):
    h = args["h"]
    # Computed: p layers of n single-qubit mixer updates over 2^n amplitudes.
    return {"calls": 1, "amp_updates": args["schedule"].p * h.num_qubits << h.num_qubits}


def _sample(args, result, parent):
    return {"shots": int(result.shots)}


def _cvar_filter(args, result, parent):
    return {"shots_in": int(args["batch"].shots), "kept": int(result.shots)}


def _iterative_qaoa(args, result, parent):
    return {"iterations": len(result.iterations)}


def _compile(args, result, parent):
    return {
        "calls": 1,
        "nested_calls": int(parent == "transpile.compile_parity"),
        "rotations_in": sum(g.name in ROTATIONS for g in args["circ"].gates),
        "gates_out": len(result.circuit.gates),
    }


def _verify(args, result, parent):
    a, b = args["a"], args["b"]
    n_logical = len(getattr(a, "initial_layout", None) or range(_circuit(a).num_qubits))
    # Computed: both circuits are applied to 2^n_logical basis states.
    width = (1 << _circuit(a).num_qubits) + (1 << _circuit(b).num_qubits)
    return {"calls": 1, "amplitudes": width << n_logical}


def _circuit(obj):
    return getattr(obj, "circuit", obj)


# Layer name -> ((module, function), ...), counter).  The layer name is the
# module name followed by the function (or function family) it times.  A
# counter maps (arguments by parameter name, result, parent layer name) to
# the counts it adds.
LAYERS = {
    "encoding.encode": ((("encoding", "encode_hubo"), ("encoding", "encode_qubo")), _poly_terms),
    "encoding.decode": ((("encoding", "decode_hubo"),), None),
    "ising.to_ising": ((("ising", "to_ising"),), _poly_terms),
    "ising.diagonal": ((("ising", "diagonal"),), _diagonal),
    "qaoa.iterative_qaoa": ((("qaoa", "iterative_qaoa"),), _iterative_qaoa),
    "qaoa.sweep": ((("qaoa", "sweep"),), None),
    "qaoa.simulate": ((("qaoa", "simulate"),), _simulate),
    "qaoa.sample": ((("qaoa", "sample"),), _sample),
    "qaoa.cvar_filter": ((("qaoa", "cvar_filter"),), _cvar_filter),
    "qaoa.update_prior": ((("qaoa", "update_prior"),), None),
    "transpile.search_layout": ((("transpile", "search_layout"),), None),
    "transpile.compile_parity": ((("transpile", "compile_parity"),), _compile),
    "transpile.compile_naive": ((("transpile", "compile_naive"),), _compile),
    "circuits.verify_equivalence": ((("circuits", "verify_equivalence"),), _verify),
}
UNIT = "bench.unit"


class Tracer:
    """Records spans and counters for every call into a layer while active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []
        self._unit = -1
        self._pass = -1
        self._patched: list[tuple[object, str, object]] = []
        self._clock0 = time.perf_counter()

    def __enter__(self):
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "tanglewalk"]
        for name, (targets, counter) in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[f"tanglewalk.{module_name}"], attr)
                wrapper = self._wrap(name, original, counter)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False

    def begin_pass(self, index: int):
        self._pass = index

    def take_pass(self) -> tuple[dict, dict]:
        """Self seconds and counters accumulated since the last call; resets both."""
        taken = dict(self.self_s), {k: dict(v) for k, v in self.counts.items()}
        self.self_s.clear()
        self.counts.clear()
        return taken

    def unit(self, index: int):
        """Context manager: the root span of one unit of work."""
        self._unit = index
        return _Span(self, UNIT)

    def _wrap(self, name, original, counter):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            with _Span(self, name):
                result = original(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result, parent).items():
                    self.counts[name][key] += value
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        return traced

    def write_jsonl(self, path):
        """Write every span as one JSON object per line (times relative to start)."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, unit, pass_index) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start - self._clock0,
                            "end": end - self._clock0,
                            "parent": parent,
                            "unit": unit,
                            "pass": pass_index,
                        }
                    )
                    + "\n"
                )


class _Span:
    """One timed call; its self time excludes the time of nested spans."""

    __slots__ = ("tracer", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.frame = [name, 0.0, 0.0, -1]  # name, start, child seconds, span id

    def __enter__(self):
        tracer = self.tracer
        # Reserve the span id now so that children can name their parent.
        self.frame[3] = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.frame)
        self.frame[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        name, start, child, sid = tracer._stack.pop()
        duration = end - start
        tracer.self_s[name] += duration - child
        parent = tracer._stack[-1] if tracer._stack else None
        if parent is not None:
            parent[2] += duration
        tracer.spans[sid] = (
            name, start, end, None if parent is None else parent[3], tracer._unit, tracer._pass
        )
        return False
