"""``scripts/reach.py`` without the full run: its ``def`` walk, its hook
and the honesty of its allowlist.

``make reach`` (minutes: the shipped paths, then tier-1, under a
profiler) is its own CI job; here every allowlist entry must still name
a ``def`` in ``src/repro``, so a deleted function cannot leave a stale
excuse behind, and the allowlist must stay within its ceiling, so a new
excuse is a visible edit of ``ALLOWLIST_CEILING``.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
reach = importlib.import_module("reach")


def test_every_allowlist_entry_names_a_def_in_src():
    keys = {d.key for d in reach.walk_defs(ROOT / "src")}
    assert sorted(set(reach.ALLOWLIST) - keys) == []


def test_the_allowlist_stays_within_its_ceiling():
    assert len(reach.ALLOWLIST) <= reach.ALLOWLIST_CEILING


def test_every_allowlist_entry_gives_a_reason():
    assert [key for key, reason in reach.ALLOWLIST.items()
            if not reason.strip()] == []


def test_walk_keys_defs_by_the_line_their_code_object_starts_on(tmp_path):
    package = tmp_path / "repro" / "sub"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def top():\n    pass\n")
    (package / "mod.py").write_text(
        "import functools\n"
        "\n"
        "class A:\n"
        "    @functools.cache\n"
        "    def method(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n")
    namespace = {}
    exec(compile((package / "mod.py").read_text(), "mod.py", "exec"), namespace)
    walked = {d.key: d for d in reach.walk_defs(tmp_path)}
    assert sorted(walked) == ["repro.sub.mod:A.method",
                              "repro.sub.mod:A.method.inner",
                              "repro.sub:top"]
    method = walked["repro.sub.mod:A.method"]
    # a decorated def's code object starts at its first decorator
    code = namespace["A"].method.__wrapped__.__code__
    assert method.first_line == code.co_firstlineno
    assert (method.n_lines, method.parent) == (5, None)
    assert walked["repro.sub.mod:A.method.inner"].parent is method


def test_the_hook_compiles():
    compile(reach.HOOK, "sitecustomize.py", "exec")
