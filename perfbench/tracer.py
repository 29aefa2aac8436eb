"""Outside-in tracer: times calls into ncsym without editing it.

install() replaces each target function with a timing wrapper in every
ncsym module namespace (and class) that bound the function by name, so a
call made through `from .linalg import op_norm` in sqrtlib is seen as well
as one made through `linalg.op_norm`.  Spans (id, parent id, task id,
name, start, end, result size, error class) are kept in memory and written
out once the run ends; uninstall() puts the original functions back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict, namedtuple
from typing import Optional

# Public functions timed in the traced run, as "<module>.<name>" or
# "<module>.<Class>.<method>" below the ncsym package.
TARGETS = (
    "parsing.parse",
    "words.FreePoly.to_uv",
    "words.FreePoly.evaluate",
    "symbasis.decompose_symmetric",
    "symbasis.reduce_to_pi",
    "symbasis.factor_through_pi",
    "symbasis.GenPoly.expand_back",
    "ratexpr.as_ncpoly",
    "ratexpr.evaluate",
    "ratexpr.substitute",
    "ratexpr.equivalent_probabilistic",
    "girard.girard_pair",
    "girard.table_expression",
    "girard.verify_girard_random",
    "linalg.op_norm",
    "linalg.spectrum",
    "linalg.alg_residual",
    "funcalc.matrix_function",
    "domains.propose_simple_set",
    "domains.fiber",
    "domains.in_U_gamma",
    "sqrtlib.sqrt_exists",
    "sqrtlib.all_square_roots",
    "verify.run_suite",
    "cli.main",
)

# Results whose length is recorded: roots returned, fiber points kept,
# words in an expansion.
SIZED = frozenset({"sqrtlib.all_square_roots", "domains.fiber",
                   "ratexpr.as_ncpoly"})

TASK = "task"
MARK = "__perfbench_original__"


Span = namedtuple("Span", "id parent task name t0 t1 size error")


def _ncsym_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "ncsym" or name.startswith("ncsym.")) and m]


def wrapped_names() -> list:
    """Every ncsym attribute that currently holds a tracer wrapper."""
    found = []
    for module in _ncsym_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{a}"
                          for a, v in vars(value).items() if hasattr(v, MARK)]
    return found


def assert_unwrapped() -> None:
    found = wrapped_names()
    if found:
        raise RuntimeError(f"tracer wrappers left in place: {found[:5]}")


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._task = 0
        self._patched: list = []

    # -- wrapping -------------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _ncsym_modules()
        for target in self.targets:
            module_name, *path = target.split(".")
            owner = sys.modules[f"ncsym.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(target, original)
            homes = [owner] if len(path) > 1 else modules
            for home in homes:
                for attr, value in list(vars(home).items()):
                    if value is original:
                        self._patched.append((home, attr, original))
                        setattr(home, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            home, attr, original = self._patched.pop()
            setattr(home, attr, original)

    def _wrap(self, name: str, func):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        sized = name in SIZED
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            error = None
            out = None
            t0 = clock()
            try:
                out = func(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                size = len(out) if sized and error is None else -1
                spans.append(Span(sid, parent, tracer._task, name, t0, t1,
                                  size, error))

        setattr(wrapper, MARK, func)
        return wrapper

    def task(self, kind: str):
        """Context manager: one harness span around one task."""
        return _TaskSpan(self, kind)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,task,name,t0,t1,size,error\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.parent},{s.task},{s.name},{s.t0!r},"
                         f"{s.t1!r},{s.size},{s.error or ''}\n")


class _TaskSpan:
    def __init__(self, tracer: Tracer, kind: str):
        self.tracer = tracer
        self.kind = kind

    def __enter__(self):
        tr = self.tracer
        self.sid = next(tr._ids)
        self.depth = len(tr._stack)
        tr._stack.append(self.sid)
        tr._task = self.sid
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        del tr._stack[self.depth:]   # a timeout may leave wrapped frames
        tr._task = 0
        tr.spans.append(Span(self.sid, 0, self.sid, f"{TASK}:{self.kind}",
                             self.t0, t1, -1, None))
        return False


# -- reading spans ------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> its duration minus the time covered by its children."""
    child = defaultdict(float)
    for s in spans:
        child[s.parent] += s.t1 - s.t0
    return {s.id: (s.t1 - s.t0) - child[s.id] for s in spans}


def ancestors_named(spans, name: str) -> set:
    """Ids of spans that have an ancestor called `name`."""
    by_id = {s.id: s for s in spans}
    memo: dict = {0: False}

    def under(sid: int) -> bool:
        chain = []
        while sid not in memo:
            chain.append(sid)
            s = by_id.get(sid)
            if s is None:
                memo[sid] = False
                break
            if s.name == name:
                memo[sid] = True
                break
            sid = s.parent
        result = memo[sid]
        for c in chain:
            memo.setdefault(c, result)
        return result

    return {s.id for s in spans if under(s.parent)}


def check_nesting(spans) -> Optional[str]:
    """Children lie inside their parent and siblings do not overlap."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    for pid, kids in children.items():
        kids.sort(key=lambda s: s.t0)
        parent = by_id.get(pid)
        for a, b in zip(kids, kids[1:]):
            if b.t0 < a.t1:
                return f"spans {a.id} and {b.id} overlap"
        if parent is not None and kids and (kids[0].t0 < parent.t0
                                            or kids[-1].t1 > parent.t1):
            return f"a child of span {pid} leaves its interval"
    return None
