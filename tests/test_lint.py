"""Tests for det-lint: engine mechanics, every rule (positive / negative /
suppressed), the CLI, and the repo-clean self-check.

Fixture sources are written under ``tmp_path`` in a miniature repo layout
(``src/repro/...``) so module-scoped rules see the right dotted names.
Suppression markers inside fixture strings are assembled via ``ALLOW`` so
this test file's *own* lines never match the suppression-comment regex.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.core import META_RULE, iter_python_files, module_name_for
from repro.lint.project import CHECKS_BY_ID, lint_project

REPO_ROOT = Path(__file__).resolve().parents[1]

# "# det: allow" assembled so the scanner never reads it from *this* file.
ALLOW = "# det: " + "al" + "low"


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def findings_of(path: Path, root: Path, rule_id: str | None = None):
    """Every finding of one file (suppressed ones marked), under one
    check or all of them."""
    checks = None if rule_id is None else [CHECKS_BY_ID[rule_id]]
    return lint_project([path], checks=checks, root=root).findings


def run_rule(tmp_path: Path, rel: str, source: str, rule_id: str):
    """Lint one fixture file with a single check; return its findings."""
    path = write(tmp_path, rel, source)
    return findings_of(path, tmp_path, rule_id)


def error_rules(findings) -> list[str]:
    return [f.rule for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def test_module_name_for():
    assert module_name_for(Path("src/repro/frw/parallel.py")) == "repro.frw.parallel"
    assert module_name_for(Path("src/repro/rng/__init__.py")) == "repro.rng"
    assert module_name_for(Path("tests/test_lint.py")) == "tests.test_lint"


#: The passes' ids; DET008 and DET010 were the shared-memory plane's.
PASS_IDS = ["DET009", "DET011", "DET012"]


def test_rule_registry_complete():
    # One registry in id order: the per-file checks come first.
    rule_ids = [f"DET00{i}" for i in range(1, 8)]
    assert list(CHECKS_BY_ID) == rule_ids + PASS_IDS
    rules = [c for c in CHECKS_BY_ID.values() if not c.whole_program]
    assert [r.id for r in rules] == rule_ids
    assert all(r.title for r in rules)
    assert all(c.id == key for key, c in CHECKS_BY_ID.items())


def test_pass_registry_complete():
    passes = [c for c in CHECKS_BY_ID.values() if c.whole_program]
    assert [p.id for p in passes] == PASS_IDS
    assert all(p.title and p.doc for p in passes)


def test_parse_error_is_meta_finding(tmp_path):
    path = write(tmp_path, "src/repro/bad.py", "def broken(:\n")
    findings = findings_of(path, tmp_path)
    assert [f.rule for f in findings] == [META_RULE]
    assert "does not parse" in findings[0].message


def test_unjustified_suppression_is_det000(tmp_path):
    src = f"import time\nt = time.time()  {ALLOW}(DET002)\n"
    path = write(tmp_path, "src/repro/x.py", src)
    findings = findings_of(path, tmp_path)
    # The DET002 finding is suppressed, but the empty justification is DET000.
    assert META_RULE in error_rules(findings)
    assert any("no justification" in f.message for f in findings)


def test_unknown_rule_id_suppression_is_det000(tmp_path):
    src = f"x = 1  {ALLOW}(DET999) not a real rule\n"
    path = write(tmp_path, "src/repro/x.py", src)
    findings = findings_of(path, tmp_path)
    assert error_rules(findings) == []  # DET999 matches the id grammar
    src2 = f"x = 1  {ALLOW}(BOGUS) nonsense\n"
    path2 = write(tmp_path, "src/repro/y.py", src2)
    findings2 = findings_of(path2, tmp_path)
    assert META_RULE in error_rules(findings2)


def test_standalone_suppression_covers_next_code_line(tmp_path):
    src = (
        "import time\n"
        f"{ALLOW}(DET002) wall-clock timestamp is the point here\n"
        "t = time.time()\n"
    )
    path = write(tmp_path, "src/repro/x.py", src)
    findings = findings_of(path, tmp_path)
    assert error_rules(findings) == []
    assert any(f.suppressed and f.rule == "DET002" for f in findings)


def test_suppression_survives_line_drift_within_function(tmp_path):
    """A suppression inside a function is matched by rule id + enclosing
    scope, so inserting lines above it cannot detach it."""
    body = (
        "import time\n"
        "class Clock:\n"
        "    def stamp(self):\n"
        f"        t = time.time()  {ALLOW}(DET002) wall stamp wanted here\n"
        "        return t\n"
    )
    path = write(tmp_path, "src/repro/x.py", body)
    before = findings_of(path, tmp_path)
    assert error_rules(before) == []
    # Drift: new code above shifts every line; the comment moves with its
    # function but no longer sits on the same absolute line.
    drifted = (
        "import time\n"
        "PAD_A = 1\nPAD_B = 2\nPAD_C = 3\n\n\n"
        "class Clock:\n"
        "    def stamp(self):\n"
        "        label = 'ts'\n"
        f"        t = time.time()  {ALLOW}(DET002) wall stamp wanted here\n"
        "        return (label, t)\n"
    )
    path2 = write(tmp_path, "src/repro/y.py", drifted)
    after = findings_of(path2, tmp_path)
    assert error_rules(after) == []
    assert any(f.suppressed and f.rule == "DET002" for f in after)


def test_scope_suppression_covers_whole_function_only(tmp_path):
    """Scope matching covers same-rule findings inside the function, but
    never leaks to other functions in the file."""
    body = (
        "import time\n"
        "def a():\n"
        f"    {ALLOW}(DET002) timestamping is a()'s documented job\n"
        "    return time.time()\n"
        "def b():\n"
        "    return time.time()\n"
    )
    path = write(tmp_path, "src/repro/x.py", body)
    findings = findings_of(path, tmp_path)
    assert error_rules(findings) == ["DET002"]
    flagged = [f for f in findings if not f.suppressed]
    assert flagged[0].scope == "b"


def test_module_level_suppression_stays_line_matched(tmp_path):
    """At module level there is no scope; matching falls back to the exact
    line, so a top-of-file comment cannot blanket the module."""
    body = (
        "import time\n"
        f"{ALLOW}(DET002) module load stamp is intentional\n"
        "T0 = time.time()\n"
        "T1 = time.time()\n"
    )
    path = write(tmp_path, "src/repro/x.py", body)
    findings = findings_of(path, tmp_path)
    assert error_rules(findings) == ["DET002"]
    assert [f.line for f in findings if f.suppressed] == [3]
    assert [f.line for f in findings if not f.suppressed] == [4]


def test_iter_python_files_skips_caches(tmp_path):
    write(tmp_path, "pkg/mod.py", "x = 1\n")
    write(tmp_path, "pkg/__pycache__/mod.cpython-311.py", "x = 1\n")
    found = [p.name for p in iter_python_files([tmp_path])]
    assert found == ["mod.py"]


# ----------------------------------------------------------------------
# DET001 — global RNG use
# ----------------------------------------------------------------------
DET001_POSITIVE = """\
import numpy as np

def sample():
    return np.random.random(3)
"""

DET001_SEEDED_CTOR = """\
import numpy as np

def gen():
    return np.random.default_rng(7)
"""


def test_det001_flags_global_numpy_rng_in_library(tmp_path):
    findings = run_rule(tmp_path, "src/repro/frw/x.py", DET001_POSITIVE, "DET001")
    assert error_rules(findings) == ["DET001"]


def test_det001_flags_seeded_ctor_inside_library(tmp_path):
    # Even seeded generators belong behind repro.rng inside the library.
    findings = run_rule(tmp_path, "src/repro/frw/x.py", DET001_SEEDED_CTOR, "DET001")
    assert error_rules(findings) == ["DET001"]


def test_det001_allows_seeded_ctor_outside_library(tmp_path):
    findings = run_rule(tmp_path, "tests/test_x.py", DET001_SEEDED_CTOR, "DET001")
    assert error_rules(findings) == []


def test_det001_flags_stdlib_random_outside_library(tmp_path):
    src = "import random\n\ndef roll():\n    return random.random()\n"
    findings = run_rule(tmp_path, "tests/test_x.py", src, "DET001")
    assert error_rules(findings) == ["DET001"]


def test_det001_whitelists_repro_rng(tmp_path):
    findings = run_rule(tmp_path, "src/repro/rng/x.py", DET001_POSITIVE, "DET001")
    assert error_rules(findings) == []


def test_det001_suppressed(tmp_path):
    src = (
        "import numpy as np\n\n"
        "def sample():\n"
        f"    return np.random.random(3)  {ALLOW}(DET001) isolated demo\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET001")
    assert error_rules(findings) == []
    assert any(f.suppressed for f in findings)


def test_det001_resolves_import_aliases(tmp_path):
    src = (
        "from numpy import random as nr\n\n"
        "def sample():\n    return nr.uniform(0, 1)\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET001")
    assert error_rules(findings) == ["DET001"]


# ----------------------------------------------------------------------
# DET002 — wall-clock / entropy seeds
# ----------------------------------------------------------------------
def test_det002_flags_time_time(tmp_path):
    src = "import time\n\ndef now():\n    return time.time()\n"
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET002")
    assert error_rules(findings) == ["DET002"]


def test_det002_flags_os_urandom_and_argless_default_rng(tmp_path):
    src = (
        "import os\nimport numpy as np\n\n"
        "def entropy():\n"
        "    return os.urandom(8), np.random.default_rng()\n"
    )
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET002")
    assert error_rules(findings) == ["DET002", "DET002"]


def test_det002_allows_perf_counter_and_seeded_rng(tmp_path):
    src = (
        "import time\nimport numpy as np\n\n"
        "def timed():\n"
        "    t0 = time.perf_counter()\n"
        "    g = np.random.default_rng(7)\n"
        "    return time.perf_counter() - t0, g\n"
    )
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET002")
    assert error_rules(findings) == []


def test_det002_strftime_with_explicit_time_ok(tmp_path):
    src = (
        "import time\n\n"
        "def fmt(t):\n    return time.strftime('%Y', time.gmtime(t))\n"
    )
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET002")
    assert error_rules(findings) == []


def test_det002_suppressed(tmp_path):
    src = (
        "import time\n\n"
        "def stamp():\n"
        f"    return time.time()  {ALLOW}(DET002) metadata timestamp only\n"
    )
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET002")
    assert error_rules(findings) == []


# ----------------------------------------------------------------------
# DET003 — unordered iteration feeding an accumulator
# ----------------------------------------------------------------------
DET003_POSITIVE = """\
def total(d):
    out = 0.0
    for v in d.values():
        out += v
    return out
"""


def test_det003_flags_dict_view_accumulation(tmp_path):
    findings = run_rule(tmp_path, "src/repro/x.py", DET003_POSITIVE, "DET003")
    assert error_rules(findings) == ["DET003"]


def test_det003_flags_set_iteration_with_merge(tmp_path):
    src = (
        "def combine(items, acc):\n"
        "    for item in set(items):\n"
        "        acc.merge(item)\n"
    )
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET003")
    assert error_rules(findings) == ["DET003"]


def test_det003_flags_row_accumulator_writes(tmp_path):
    src = (
        "def absorb(rows, acc):\n"
        "    for r in set(rows):\n"
        "        acc.add_walk(r, 0, 1.0)\n"
        "    for r in rows.values():\n"
        "        acc.add_batch(r)\n"
        "    for r in rows.keys():\n"
        "        acc.add_walks_ordered(r)\n"
    )
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET003")
    assert error_rules(findings) == ["DET003"] * 3
    assert [f.line for f in findings] == [2, 4, 6]


def test_det003_allows_sorted_iteration(tmp_path):
    src = (
        "def total(d):\n"
        "    out = 0.0\n"
        "    for k, v in sorted(d.items()):\n"
        "        out += v\n"
        "    return out\n"
    )
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET003")
    assert error_rules(findings) == []


def test_det003_allows_non_accumulating_body(tmp_path):
    src = "def close_all(d):\n    for v in d.values():\n        v.close()\n"
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET003")
    assert error_rules(findings) == []


def test_det003_suppressed(tmp_path):
    src = (
        "def total(d):\n"
        "    out = 0\n"
        f"    {ALLOW}(DET003) integer counts are order-independent\n"
        "    for v in d.values():\n"
        "        out += v\n"
        "    return out\n"
    )
    findings = run_rule(tmp_path, "src/repro/x.py", src, "DET003")
    assert error_rules(findings) == []


# ----------------------------------------------------------------------
# DET004 — bare/broad except in hot modules
# ----------------------------------------------------------------------
DET004_POSITIVE = """\
def risky():
    try:
        work()
    except Exception:
        pass
"""


def test_det004_flags_broad_except_in_hot_module(tmp_path):
    findings = run_rule(tmp_path, "src/repro/frw/x.py", DET004_POSITIVE, "DET004")
    assert error_rules(findings) == ["DET004"]


def test_det004_ignores_cold_modules(tmp_path):
    findings = run_rule(tmp_path, "src/repro/analysis/x.py", DET004_POSITIVE, "DET004")
    assert error_rules(findings) == []


def test_det004_allows_narrow_except_and_reraise(tmp_path):
    src = (
        "def risky():\n"
        "    try:\n"
        "        work()\n"
        "    except ValueError:\n"
        "        pass\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        cleanup()\n"
        "        raise\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET004")
    assert error_rules(findings) == []


def test_det004_allows_handing_the_error_on(tmp_path):
    """A worker that posts the error it caught to the caller who raises
    it surfaces the error; dropping the bound name does not."""
    src = (
        "def serve(outbox):\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as exc:\n"
        "        outbox.put((None, exc))\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as exc:\n"
        "        outbox.put((None, None))\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET004")
    assert error_rules(findings) == ["DET004"]
    assert findings[0].line == 8


def test_det004_flags_logging_the_error_and_carrying_on(tmp_path):
    """Passing the bound error to a logger or print is no hand-off: the
    caller never sees it."""
    for call in ("_LOG.warning('failed: %s', exc)", "print(exc)"):
        src = (
            "def serve():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            f"        {call}\n"
        )
        findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET004")
        assert error_rules(findings) == ["DET004"], call


def test_det004_suppressed(tmp_path):
    src = (
        "def risky():\n"
        "    try:\n"
        "        work()\n"
        f"    except Exception:  {ALLOW}(DET004) gc-time teardown race\n"
        "        pass\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET004")
    assert error_rules(findings) == []


# ----------------------------------------------------------------------
# DET005 — raw float accumulation in hot loops
# ----------------------------------------------------------------------
def test_det005_flags_float_augassign_in_loop(tmp_path):
    src = (
        "def run(xs):\n"
        "    total = 0.0\n"
        "    for x in xs:\n"
        "        total += x / 3.0\n"
        "    return total\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET005")
    assert error_rules(findings) == ["DET005"]


def test_det005_flags_builtin_sum_over_floats(tmp_path):
    src = "def run(xs):\n    return sum(float(x) for x in xs)\n"
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET005")
    assert error_rules(findings) == ["DET005"]


def test_det005_allows_int_counters(tmp_path):
    src = (
        "def run(xs):\n"
        "    count = 0\n"
        "    for x in xs:\n"
        "        count += 1\n"
        "        count += int(x)\n"
        "    return count + sum(len(x) for x in xs)\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET005")
    assert error_rules(findings) == []


def test_det005_ignores_cold_modules_and_summation_module(tmp_path):
    src = (
        "def run(xs):\n"
        "    total = 0.0\n"
        "    for x in xs:\n"
        "        total += x / 3.0\n"
        "    return total\n"
    )
    cold = run_rule(tmp_path, "src/repro/analysis/x.py", src, "DET005")
    assert error_rules(cold) == []
    impl = run_rule(tmp_path, "src/repro/numerics/summation.py", src, "DET005")
    assert error_rules(impl) == []


def test_det005_suppressed(tmp_path):
    src = (
        "def run(xs):\n"
        "    total = 0.0\n"
        "    for x in xs:\n"
        f"        {ALLOW}(DET005) bounded 8-term sum, exact in double\n"
        "        total += x / 3.0\n"
        "    return total\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET005")
    assert error_rules(findings) == []


# ----------------------------------------------------------------------
# DET006 — shared-state mutation in executor-submitted callables
# ----------------------------------------------------------------------
DET006_POSITIVE = """\
CACHE = {}

def work(key):
    CACHE[key] = key * 2
    return key

def dispatch(pool, keys):
    return [pool.submit(work, k) for k in keys]
"""

DET006_NEGATIVE = """\
def work(key):
    local = {}
    local[key] = key * 2
    return local

def dispatch(pool, keys):
    return [pool.submit(work, k) for k in keys]
"""


def test_det006_flags_shared_mutation(tmp_path):
    findings = run_rule(tmp_path, "src/repro/frw/x.py", DET006_POSITIVE, "DET006")
    assert error_rules(findings) == ["DET006"]
    assert "CACHE" in findings[0].message


def test_det006_allows_pure_workers(tmp_path):
    findings = run_rule(tmp_path, "src/repro/frw/x.py", DET006_NEGATIVE, "DET006")
    assert error_rules(findings) == []


def test_det006_flags_self_mutation_from_method_submit(tmp_path):
    src = (
        "class Runner:\n"
        "    def work(self, key):\n"
        "        self.state = key\n"
        "        return key\n"
        "    def dispatch(self, pool, keys):\n"
        "        return [pool.submit(self.work, k) for k in keys]\n"
    )
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET006")
    assert error_rules(findings) == ["DET006"]


DET006_PROCESS = """\
import multiprocessing

CACHE = {}

def worker(conn):
    %s

def start(ctx):
    parent, child = ctx.Pipe()
    ctx.Process(target=worker, args=(child,)).start()
    multiprocessing.Process(target=worker, args=(child,)).start()
    return parent
"""


def test_det006_flags_shared_mutation_in_process_target(tmp_path):
    src = DET006_PROCESS % "CACHE[conn] = conn.recv()"
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET006")
    assert error_rules(findings) == ["DET006"]
    assert "CACHE" in findings[0].message


def test_det006_allows_process_target_with_local_state(tmp_path):
    src = DET006_PROCESS % "state = {}; state[conn] = conn.recv()"
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET006")
    assert error_rules(findings) == []


DET006_THREAD = """\
import threading

CACHE = {}
LOCK = threading.Lock()

def worker(inbox):
    %s

def start(inbox):
    threading.Thread(target=worker, args=(inbox,), daemon=True).start()
"""


def test_det006_flags_shared_mutation_in_library_thread_target(tmp_path):
    src = DET006_THREAD % "CACHE[inbox] = inbox.get()"
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET006")
    assert error_rules(findings) == ["DET006"]
    assert "CACHE" in findings[0].message


def test_det006_allows_thread_target_with_local_or_locked_state(tmp_path):
    for body in (
        "state = {}; state[inbox] = inbox.get()",
        "with LOCK:\n        CACHE[inbox] = inbox.get()",
    ):
        src = DET006_THREAD % body
        findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET006")
        assert error_rules(findings) == [], body


def test_det006_flags_writes_under_a_context_manager_that_is_no_lock(
    tmp_path,
):
    """Only a ``with`` on one of the module's threading locks exempts a
    write; a tracer, a timer or an unknown name serializes nothing."""
    src = DET006_THREAD.replace(
        "LOCK = threading.Lock()", "LOCK = threading.Lock()\nTRACER = Tracer()"
    )
    for manager in ("TRACER", "timers", "self._timers"):
        body = f"with {manager}:\n        CACHE[inbox] = inbox.get()"
        findings = run_rule(tmp_path, "src/repro/frw/x.py", src % body, "DET006")
        assert error_rules(findings) == ["DET006"], manager


DET006_LOCKED_METHOD = """\
import threading

class Service:
    def __init__(self):
        self._cond = threading.Condition()
        self._timers = Timers()
        self.done = 0
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self):
        with self.%s:
            self.done += 1
"""


def test_det006_exempts_writes_under_a_self_lock_only(tmp_path):
    findings = run_rule(
        tmp_path, "src/repro/service/x.py", DET006_LOCKED_METHOD % "_cond",
        "DET006",
    )
    assert error_rules(findings) == []
    findings = run_rule(
        tmp_path, "src/repro/service/x.py", DET006_LOCKED_METHOD % "_timers",
        "DET006",
    )
    assert error_rules(findings) == ["DET006"]
    assert "self.done" in findings[0].message


def test_det006_follows_threads_in_the_library_only(tmp_path):
    """Tests and benchmarks start threads that collect their results by
    slot; only the library's thread targets are followed."""
    src = DET006_THREAD % "CACHE[inbox] = inbox.get()"
    findings = run_rule(tmp_path, "tests/test_x.py", src, "DET006")
    assert error_rules(findings) == []


def test_det006_checks_the_executor_worker_loop(tmp_path):
    """The real worker loop is followed: a write to shared state injected
    into it is one DET006 finding."""
    source = (REPO_ROOT / "src/repro/frw/parallel.py").read_text()
    anchor = "    vector = WalkPipeline()\n    while True:\n"
    assert anchor in source
    stash = "native.last_vector = vector\n    "
    mutated = source.replace(anchor, anchor.replace("while", stash + "while"))
    findings = run_rule(tmp_path, "src/repro/frw/parallel.py", mutated, "DET006")
    assert error_rules(findings) == ["DET006"]
    assert "'_serve'" in findings[0].message
    assert "native.last_vector" in findings[0].message


def test_det006_ignores_unsubmitted_functions(tmp_path):
    src = "CACHE = {}\n\ndef work(key):\n    CACHE[key] = key\n"
    findings = run_rule(tmp_path, "src/repro/frw/x.py", src, "DET006")
    assert error_rules(findings) == []


def test_det006_suppressed(tmp_path):
    lines = DET006_POSITIVE.splitlines()
    lines[3] = (
        f"    CACHE[key] = key * 2  {ALLOW}(DET006) per-process fork memo"
    )
    findings = run_rule(
        tmp_path, "src/repro/frw/x.py", "\n".join(lines) + "\n", "DET006"
    )
    assert error_rules(findings) == []


# ----------------------------------------------------------------------
# DET007 — FRWConfig validation + doc coverage
# ----------------------------------------------------------------------
CONFIG_TEMPLATE = """\
from dataclasses import dataclass

@dataclass(frozen=True)
class FRWConfig:
    alpha: int = 1
    beta: float = 0.5
    flag: bool = True

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha")
{extra_validation}
"""


def _write_config_repo(tmp_path, readme: str, extra_validation: str = ""):
    write(tmp_path, "README.md", readme)
    return write(
        tmp_path,
        "src/repro/config.py",
        CONFIG_TEMPLATE.format(extra_validation=extra_validation),
    )


def test_det007_flags_unvalidated_and_undocumented(tmp_path):
    path = _write_config_repo(tmp_path, "docs mention alpha and flag\n")
    findings = findings_of(path, tmp_path, "DET007")
    messages = [f.message for f in findings if not f.suppressed]
    assert any("beta is never validated" in m for m in messages)
    assert any("beta is not mentioned" in m for m in messages)
    # bool fields are exempt from validation but not from documentation
    assert not any("flag is never validated" in m for m in messages)


def test_det007_clean_when_validated_and_documented(tmp_path):
    path = _write_config_repo(
        tmp_path,
        "alpha, beta and flag are documented here\n",
        extra_validation=(
            "        if self.beta <= 0:\n"
            "            raise ValueError('beta')\n"
        ),
    )
    findings = findings_of(path, tmp_path, "DET007")
    assert error_rules(findings) == []


def test_det007_only_runs_on_config_module(tmp_path):
    write(tmp_path, "README.md", "nothing documented\n")
    path = write(
        tmp_path,
        "src/repro/frw/other.py",
        CONFIG_TEMPLATE.format(extra_validation=""),
    )
    findings = findings_of(path, tmp_path, "DET007")
    assert error_rules(findings) == []


def test_det007_suppressed(tmp_path):
    write(tmp_path, "README.md", "alpha and flag only\n")
    src = CONFIG_TEMPLATE.format(extra_validation="").replace(
        "    beta: float = 0.5",
        f"    {ALLOW}(DET007) beta is experimental, undocumented on purpose\n"
        "    beta: float = 0.5",
    )
    path = write(tmp_path, "src/repro/config.py", src)
    findings = findings_of(path, tmp_path, "DET007")
    assert error_rules(findings) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _cli_fixture(tmp_path) -> Path:
    return write(
        tmp_path,
        "src/repro/x.py",
        "import time\n\ndef now():\n    return time.time()\n",
    )


def test_cli_exit_codes(tmp_path, capsys):
    dirty = _cli_fixture(tmp_path)
    assert lint_main([str(dirty)]) == 1
    clean = write(tmp_path, "src/repro/clean.py", "x = 1\n")
    assert lint_main([str(clean)]) == 0
    assert lint_main([str(tmp_path / "does-not-exist")]) == 2
    capsys.readouterr()


def test_cli_text_output(tmp_path, capsys):
    dirty = _cli_fixture(tmp_path)
    lint_main([str(dirty)])
    out = capsys.readouterr().out
    assert "DET002" in out
    assert "error(s)" in out


def test_cli_gates_every_unsuppressed_finding(tmp_path, capsys):
    """Nothing demotes a finding, and the baseline flags are gone."""
    dirty = _cli_fixture(tmp_path)
    assert lint_main([str(dirty)]) == 1
    assert "1 error(s)" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        lint_main(["--no-baseline", str(dirty)])


def test_cli_summary_counts_per_rule(tmp_path, capsys):
    dirty = _cli_fixture(tmp_path)
    assert lint_main([str(dirty)]) == 1
    out = capsys.readouterr().out
    summary = [ln for ln in out.splitlines() if ln.startswith("det-lint:")]
    assert summary and "DET002:1" in summary[0]


def test_cli_github_annotations(tmp_path, capsys):
    dirty = _cli_fixture(tmp_path)
    lint_main([str(dirty), "--format=github"])
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=DET002" in out
    # commas in messages must be escaped for the annotation mini-format
    for line in out.splitlines():
        if line.startswith("::error"):
            assert "," not in line.split("::", 2)[-1]


def test_cli_json_output_and_counts(tmp_path, capsys):
    import json

    dirty = _cli_fixture(tmp_path)
    lint_main([str(dirty), "--format=json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["errors"] == 1
    assert payload["counts"]["rules"]["DET002"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "DET002"


def test_frw_rr_lint_forwards_option_flags(tmp_path, capsys, monkeypatch):
    # argparse.REMAINDER chokes on a leading flag ("frw-rr lint --format
    # ..."), so the main CLI forwards the tokens after "lint" itself.
    import json

    from repro.cli import main as repro_main

    monkeypatch.chdir(tmp_path)
    _cli_fixture(tmp_path)
    assert repro_main(["lint", "--format=json", "src"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["rules"]["DET002"]["errors"] == 1


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [ln.split()[0] for ln in out.splitlines() if ln.startswith("DET")]
    assert listed == list(CHECKS_BY_ID)


# ----------------------------------------------------------------------
# Repo-clean self-check over exactly the paths CI and ``make lint`` lint.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def repo_report():
    return lint_project(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
        root=REPO_ROOT,
    )


def test_repo_is_lint_clean(repo_report):
    """The full analysis (per-file and whole-program checks) must exit 0
    on this repo: every unsuppressed finding gates."""
    assert repo_report.files > 0
    problems = [
        f"{f.path}:{f.line}: {f.rule} {f.message}"
        for f in repo_report.errors
    ]
    assert problems == []


def test_repo_suppressions_are_justified(repo_report):
    """Every suppression in the repo carries a non-trivial justification."""
    for f in repo_report.suppressed:
        assert len(f.justification) >= 10, f"{f.path}:{f.line} ({f.rule})"


def test_import_repro_does_not_load_the_analyzer():
    """``import repro`` loads nothing of ``repro.lint``, and the runtime
    sanitizer, imported on its own, does not pull in the static analyzer
    (parsers, graph, checks)."""

    def lint_modules(imports: str) -> str:
        code = (
            f"import sys, {imports}\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.lint')))"
        )
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        ).stdout.strip()

    assert lint_modules("repro") == "[]"
    assert lint_modules("repro.lint.sanitizer") == (
        "['repro.lint', 'repro.lint.sanitizer']"
    )
