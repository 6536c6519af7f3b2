"""Outside-in tracing of drinfeldforms' layers, installed from the benchmark.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
public functions and methods at each module boundary:

* a *span* records (name, start, end, parent) for every call and is kept
  in memory until :meth:`Recorder.dump` writes it out;
* a *counter* only counts calls.  The hot-arithmetic counters
  (``Poly.__mul__`` alone runs about 0.7M times on ops-k2) add 15-40% to a
  run, so counters are installed only when asked for, and the benchmark
  takes span timings from a run without them.

``from .x import y`` binds ``y`` in the importing module at import time, so
a function is replaced in every ``drinfeldforms`` module namespace that
binds it, not only where it is defined.  Methods are replaced on the class.
A boundary that no longer exists raises ``LookupError``.
"""

import functools
import json
import sys
import time
from collections import Counter

# statuses that verify.suite_passed accepts
PASSING = (True, "skipped", "diagnostic")


def _edge_orbits(counts, args, result):
    counts["tree.edge_orbits"] += len(args[0].edge_orbits)


def _solve_size(counts, args, result):
    rows = args[0]
    counts["cocycles.solve_rows"] += len(rows)
    counts["cocycles.solve_nnz"] += sum(len(r) for r in rows)


def _verify_records(counts, args, result):
    counts["verify.items"] += 1
    counts["verify.records"] += len(result)
    counts["verify.records_failed"] += sum(r["status"] not in PASSING for r in result)


def _out_bytes(counts, args, result):
    counts["serialize.out_bytes"] += len(result.encode())


def _item_kind(args):
    return "verify.item." + args[0][0]


# (span name, module, attribute path, span-name function, probe)
SPANS = (
    ("groups.context", "groups", "group_context", None, None),
    ("tree.graph_build", "tree", "QuotientGraph.__init__", None, _edge_orbits),
    ("tree.witness", "tree", "TreeContext.edge_witness", None, None),
    ("cocycles.space", "cocycles", "CocycleSpace.__init__", None, None),
    ("cocycles.solve", "cocycles", "sparse_kernel", None, _solve_size),
    ("cocycles.coords", "cocycles", "Coordinates.coords", None, None),
    ("hecke.engine", "hecke", "HeckeEngine.__init__", None, None),
    ("hecke.ut", "hecke", "HeckeEngine.u_t", None, None),
    ("hecke.tm", "hecke", "HeckeEngine.t_m", None, None),
    ("hecke.diamond", "hecke", "HeckeEngine.diamond", None, None),
    ("hecke.certificate", "hecke", "ordinary_certificate", None, None),
    ("linalg.charpoly", "linalg", "charpoly", None, None),
    ("linalg.eval_matrix", "linalg", "UPoly.eval_matrix", None, None),
    ("verify.item", "verify", "run_item", _item_kind, _verify_records),
    ("serialize.dump", "serialize", "canonical_json_dumps", None, _out_bytes),
)

# (counter name, module, attribute path)
COUNTERS = (
    ("tree.classify_calls", "tree", "QuotientGraph.classify"),
    ("tree.reduce_calls", "tree", "TreeContext.reduce_edge"),
    ("tree.reduce_misses", "tree", "reduce_edge"),
    ("cocycles.evaluate_calls", "cocycles", "CocycleSpace.evaluate"),
    ("linalg.matmul_calls", "linalg", "Matrix.__mul__"),
    ("rings.poly_mul_calls", "rings", "Poly.__mul__"),
    ("rings.poly_divmod_calls", "rings", "Poly.__divmod__"),
    ("rings.poly_gcd_calls", "rings", "poly_gcd"),
    ("fq.elem_mul_calls", "fq", "FqElem.__mul__"),
    ("mat2.mul_calls", "mat2", "Mat2.__mul__"),
)

VERIFY_KINDS = ("space", "goss", "pullback", "congruence", "cusps", "stable-count", "freeness")

# every span name a complete trace must contain
SPAN_NAMES = tuple(s[0] for s in SPANS if s[3] is None) + tuple(
    "verify.item." + kind for kind in VERIFY_KINDS
)


class Recorder:
    """Spans as parallel lists, plus exact counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = []
        self.counts = Counter()

    def name_index(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, nid):
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, name_of=None, probe=None):
        """``fn`` wrapped so that each call records a span."""
        fixed = None if name_of else self.name_index(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = self.open(fixed if name_of is None else self.name_index(name_of(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if probe is not None:
                probe(counts, args, result)
            return result

        return wrapped

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "name_id": self.name_id,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "counts": dict(self.counts),
                },
                fh,
            )


def _replace(module_name, path, make):
    """Wrap the object at ``drinfeldforms.<module_name>.<path>`` everywhere it is bound."""
    module = sys.modules["drinfeldforms." + module_name]
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        if owner is None or attr not in vars(owner):
            raise LookupError(f"tracing boundary {module_name}.{path} not found")
        setattr(owner, attr, make(vars(owner)[attr]))
        return
    original = getattr(module, attr, None)
    if original is None:
        raise LookupError(f"tracing boundary {module_name}.{path} not found")
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if (name == "drinfeldforms" or name.startswith("drinfeldforms.")) and getattr(
            mod, attr, None
        ) is original:
            setattr(mod, attr, wrapped)


def install(counters):
    """Wrap every boundary of an imported drinfeldforms; return the Recorder.

    ``counters`` adds the call counters to the spans.
    """
    import drinfeldforms.cli  # noqa: F401  (binds every module the CLI looks names up in)

    rec = Recorder()
    for name, module, path, name_of, probe in SPANS:
        _replace(module, path, lambda fn, n=name, f=name_of, p=probe: rec.span(n, fn, f, p))
    if counters:
        for name, module, path in COUNTERS:
            _replace(module, path, lambda fn, n=name: rec.counter(n, fn))
    return rec


def summarize(trace):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a name that
    nests inside itself is not counted twice.  Self time is a span's
    duration minus the durations of its direct children.
    """
    names, nid, parent = trace["names"], trace["name_id"], trace["parent"]
    dur = [e - s for s, e in zip(trace["start"], trace["end"])]
    child = [0.0] * len(dur)
    for sid, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[sid]
    out = {}
    for sid, p in enumerate(parent):
        name = names[nid[sid]]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur[sid] - child[sid]
        while p >= 0 and nid[p] != nid[sid]:
            p = parent[p]
        if p < 0:
            row["total_s"] += dur[sid]
    return out
