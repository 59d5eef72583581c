"""Tests for det-lint v2's whole-program layer: the project graph
(:mod:`repro.lint.graph`), the four interprocedural passes
(:mod:`repro.lint.passes`), and the acceptance mutation tests — each
contract violation injected into a *copy of the real source tree* must
produce exactly one new finding with the right rule id.

Mini-repo fixtures follow the same ``src/repro/...`` layout as
``test_lint.py`` so module-scoped confinement sees real dotted names.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint.core import SourceFile
from repro.lint.graph import ProjectGraph
from repro.lint.project import CHECKS_BY_ID, lint_project

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def graph_of(tmp_path: Path, files: dict[str, str]):
    sources = []
    for rel, body in files.items():
        path = write(tmp_path, rel, body)
        sources.append(SourceFile.parse(path, root=tmp_path))
    return ProjectGraph(sources)


def pass_errors(tmp_path: Path, files: dict[str, str], pass_id: str):
    """Unsuppressed findings of one pass over a mini-repo."""
    for rel, body in files.items():
        write(tmp_path, rel, body)
    report = lint_project(
        [tmp_path / "src"], checks=[CHECKS_BY_ID[pass_id]], root=tmp_path
    )
    return report.errors


# ----------------------------------------------------------------------
# Graph substrate
# ----------------------------------------------------------------------
def test_relative_imports_canonicalize(tmp_path):
    g = graph_of(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/rng/__init__.py": "from .philox import mix\n",
            "src/repro/rng/philox.py": "def mix(x):\n    return x\n",
            "src/repro/rng/stream.py": (
                "from .philox import mix\n"
                "from ..rng import philox\n"
                "def draw(x):\n"
                "    return mix(philox.mix(x))\n"
            ),
        },
    )
    r = g.resolvers["repro.rng.stream"]
    assert r.aliases["mix"] == "repro.rng.philox.mix"
    assert r.aliases["philox"] == "repro.rng.philox"
    # package __init__ resolves level-1 against itself
    r_init = g.resolvers["repro.rng"]
    assert r_init.aliases["mix"] == "repro.rng.philox.mix"


def test_module_reachability(tmp_path):
    g = graph_of(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/a.py": "from repro import b\n",
            "src/repro/b.py": "from repro import c\n",
            "src/repro/c.py": "",
            "src/repro/island.py": "",
        },
    )
    reach = g.reachable_modules(["repro.a"])
    assert reach == {"repro.a", "repro.b", "repro.c"}
    assert g.reachable_modules(["repro.missing"]) == set()


def test_call_graph_resolution(tmp_path):
    g = graph_of(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/util.py": "def helper():\n    return 1\n",
            "src/repro/m.py": (
                "from repro.util import helper\n"
                "def local():\n"
                "    return helper()\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self.v = local()\n"
                "    def get(self):\n"
                "        return self.size()\n"
                "    def size(self):\n"
                "        return self.v\n"
                "def make():\n"
                "    return Box()\n"
            ),
        },
    )
    assert "repro.util.helper" in g.calls["repro.m.local"]
    assert "repro.m.local" in g.calls["repro.m.Box.__init__"]
    assert "repro.m.Box.size" in g.calls["repro.m.Box.get"]  # self.method
    assert "repro.m.Box.__init__" in g.calls["repro.m.make"]  # Class()
    reach = g.reachable_functions(["repro.m.make"])
    assert "repro.util.helper" in reach


def test_def_use_chains(tmp_path):
    g = graph_of(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/m.py": (
                "def f(ctx, config):\n"
                "    cfg = ctx.config\n"
                "    a = config.seed\n"
                "    ctx.flag = True\n"
                "    return cfg, a\n"
            ),
        },
    )
    du = g.def_use(g.functions["repro.m.f"])
    assert [p[0] for p in du.params] == ["ctx", "config"]
    assert ("cfg", du.assigns[0][1], du.assigns[0][2]) == du.assigns[0]
    read_paths = {p for p, _ in du.attr_reads}
    assert {"ctx.config", "config.seed"} <= read_paths
    write_bases = {p for p, _ in du.attr_writes}
    assert "ctx.flag" in write_bases


# ----------------------------------------------------------------------
# Pass behavior on mini-repos
# ----------------------------------------------------------------------
MINI_CONFIG = """
    RESULT_FIELDS = ("seed", "max_steps")
    ENGINE_FIELDS = ("n_workers",)
    class FRWConfig:
        seed: int = 0
        max_steps: int = 64
        n_workers: int = 1
        tolerance: float = 0.01
        def result_key(self):
            return tuple((f, getattr(self, f)) for f in RESULT_FIELDS)
"""

MINI_ENTRYPOINTS = {
    "src/repro/__init__.py": "",
    "src/repro/frw/__init__.py": "",
    "src/repro/frw/solver.py": "from . import engine\n",
    "src/repro/frw/estimator.py": "",
}


def test_det009_unclassified_and_stale(tmp_path):
    files = dict(MINI_ENTRYPOINTS)
    files["src/repro/config.py"] = MINI_CONFIG
    files["src/repro/frw/engine.py"] = """
        def run(config):
            return config.seed + config.tolerance
    """
    errors = pass_errors(tmp_path, files, "DET009")
    assert [f.rule for f in errors] == ["DET009", "DET009"]
    messages = " | ".join(f.message for f in errors)
    assert "tolerance" in messages  # read but unclassified
    assert "max_steps" in messages  # hashed but never read


def test_det009_silent_without_config_module(tmp_path):
    files = dict(MINI_ENTRYPOINTS)
    files["src/repro/frw/engine.py"] = (
        "def run(config):\n    return config.tolerance\n"
    )
    assert pass_errors(tmp_path, files, "DET009") == []


def test_det009_staleness_needs_full_entry_closure(tmp_path):
    # estimator.py missing -> partial run: unclassified reads still fire,
    # staleness must not (the unread half may live in the absent module).
    files = {
        "src/repro/__init__.py": "",
        "src/repro/frw/__init__.py": "",
        "src/repro/frw/solver.py": "from . import engine\n",
        "src/repro/config.py": MINI_CONFIG,
        "src/repro/frw/engine.py": (
            "def run(config):\n    return config.seed\n"
        ),
    }
    errors = pass_errors(tmp_path, files, "DET009")
    assert all("never read" not in f.message for f in errors)


DET010_FILES = {
    "src/repro/__init__.py": "",
    "src/repro/frw/__init__.py": "",
}


@pytest.mark.parametrize(
    "body, expect",
    [
        (  # leak: still open at exit on every path
            """
            from multiprocessing.shared_memory import SharedMemory
            def f(n):
                seg = SharedMemory(name="x", create=True, size=n)
                seg.buf[:1] = b"a"
                return n
            """,
            ["may still be mapped"],
        ),
        (  # branch leak: cleaned on one path only
            """
            from multiprocessing.shared_memory import SharedMemory
            def f(n, keep):
                seg = SharedMemory(name="x", create=True, size=n)
                if not keep:
                    seg.close()
                    seg.unlink()
            """,
            ["may still be mapped"],
        ),
        (  # double unlink
            """
            from multiprocessing.shared_memory import SharedMemory
            def f(n):
                seg = SharedMemory(name="x", create=True, size=n)
                seg.close()
                seg.unlink()
                seg.unlink()
            """,
            ["unlink()ed twice"],
        ),
        (  # use after close
            """
            from multiprocessing.shared_memory import SharedMemory
            def f(n):
                seg = SharedMemory(name="x", create=True, size=n)
                seg.close()
                return bytes(seg.buf[:1])
            """,
            ["after close()"],
        ),
        (  # clean protocol: no findings
            """
            from multiprocessing.shared_memory import SharedMemory
            def f(n):
                seg = SharedMemory(name="x", create=True, size=n)
                try:
                    seg.buf[:1] = b"a"
                finally:
                    seg.close()
                    seg.unlink()
            """,
            [],
        ),
        (  # ownership escape: returning the open block is fine
            """
            from multiprocessing.shared_memory import SharedMemory
            def f(n):
                seg = SharedMemory(name="x", create=True, size=n)
                return seg
            """,
            [],
        ),
        (  # ownership escape: stored in a registry
            """
            from multiprocessing.shared_memory import SharedMemory
            REG = {}
            def f(n):
                seg = SharedMemory(name="x", create=True, size=n)
                REG[n] = (seg, n)
            """,
            [],
        ),
    ],
)
def test_det010_typestate(tmp_path, body, expect):
    files = dict(DET010_FILES)
    files["src/repro/frw/piece.py"] = body
    errors = pass_errors(tmp_path, files, "DET010")
    assert [f.rule for f in errors] == ["DET010"] * len(expect)
    for fragment, finding in zip(expect, errors):
        assert fragment in finding.message


def test_det011_kernel_confinement(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/rng/__init__.py": "",
        "src/repro/rng/philox.py": (
            "def philox4x32(c, k):\n    return c\n"
            "def derive_key(seed, stream=0):\n    return (seed, stream)\n"
        ),
        "src/repro/rng/counter_stream.py": (
            "from .philox import philox4x32, derive_key\n"
            "def draws(seed, uid):\n"
            "    return philox4x32(uid, derive_key(seed))\n"
        ),
        "src/repro/frw/__init__.py": "",
        "src/repro/frw/rogue.py": (
            "from repro.rng.philox import philox4x32\n"
            "def fast(ctr, key):\n"
            "    return philox4x32(ctr, key)\n"
        ),
    }
    errors = pass_errors(tmp_path, files, "DET011")
    assert [f.rule for f in errors] == ["DET011"]
    assert "rogue" in errors[0].path
    assert "philox4x32" in errors[0].message


def test_det012_post_registration_mutation(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/frw/__init__.py": "",
        "src/repro/frw/sched.py": (
            "def good(executor, ctx, spec):\n"
            "    ctx.tag = 'pre'\n"
            "    return executor.register(ctx, spec)\n"
            "def bad(executor, ctx, spec):\n"
            "    key = executor.register(ctx, spec)\n"
            "    ctx.tag = 'post'\n"
            "    ctx.items[0] = 1\n"
            "    return key\n"
        ),
    }
    errors = pass_errors(tmp_path, files, "DET012")
    assert [f.rule for f in errors] == ["DET012", "DET012"]
    assert all(f.scope == "bad" for f in errors)


def test_pass_findings_are_suppressible(tmp_path):
    allow = "# det: " + "al" + "low"
    files = {
        "src/repro/__init__.py": "",
        "src/repro/frw/__init__.py": "",
        "src/repro/frw/sched.py": (
            "def resize(executor, ctx, spec):\n"
            f"    {allow}(DET012) executor re-registers on next dispatch\n"
            "    key = executor.register(ctx, spec)\n"
            "    ctx.epoch = 1\n"
            "    return key\n"
        ),
    }
    for rel, body in files.items():
        write(tmp_path, rel, body)
    report = lint_project(
        [tmp_path / "src"], checks=[CHECKS_BY_ID["DET012"]], root=tmp_path
    )
    assert report.errors == []
    assert [f.rule for f in report.suppressed] == ["DET012"]


# ----------------------------------------------------------------------
# Acceptance mutation tests: inject each contract violation into a copy
# of the real source tree; the analyzer must report exactly one new
# finding with the correct rule id (the unmutated tree is clean, which
# test_lint.py::test_repo_is_lint_clean pins).
# ----------------------------------------------------------------------
@pytest.fixture()
def repo_copy(tmp_path):
    dest = tmp_path / "src"
    shutil.copytree(
        REPO_ROOT / "src",
        dest,
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    return tmp_path


def mutated_errors(repo_root: Path):
    report = lint_project([repo_root / "src"], root=repo_root)
    return report.errors


def test_mutation_dropping_hash_field_is_one_det009(repo_copy):
    config = repo_copy / "src/repro/config.py"
    text = config.read_text()
    assert '"max_steps",' in text
    config.write_text(text.replace('"max_steps",', "", 1))
    errors = mutated_errors(repo_copy)
    assert [f.rule for f in errors] == ["DET009"]
    assert "max_steps" in errors[0].message
    assert "neither RESULT_FIELDS" in errors[0].message


def test_mutation_leaking_shm_block_is_one_det010(repo_copy):
    shm = repo_copy / "src/repro/frw/shm.py"
    shm.write_text(
        shm.read_text()
        + "\n\ndef _rogue_scratch(nbytes):\n"
        + '    seg = SharedMemory(name="rogue", create=True, size=nbytes)\n'
        + "    seg.buf[:1] = b'x'\n"
    )
    errors = mutated_errors(repo_copy)
    assert [f.rule for f in errors] == ["DET010"]
    assert "may still be mapped" in errors[0].message
    assert errors[0].scope == "_rogue_scratch"


@pytest.mark.parametrize(
    "call",
    [
        "from repro.native import philox_span\n"
        "def _rogue_draws(uids, steps, key):\n"
        "    return philox_span(uids, steps, key, 3)\n",
        "from .. import native\n"
        "def _rogue_draws(counter, key):\n"
        "    return native.philox4x32_block(counter, key)\n",
    ],
    ids=["philox_span", "philox4x32_block"],
)
def test_mutation_calling_compiled_philox_is_one_det011(repo_copy, call):
    """The compiled kernel's wrappers are raw Philox kernels: calling one
    from outside repro.rng forks the stream like a hand-built counter."""
    walk = repo_copy / "src/repro/frw/walk.py"
    walk.write_text(walk.read_text() + "\n\n" + call)
    errors = mutated_errors(repo_copy)
    assert [f.rule for f in errors] == ["DET011"]
    assert "raw Philox kernel call" in errors[0].message
    assert errors[0].scope == "_rogue_draws"
