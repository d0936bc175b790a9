"""Which functions in ``src/repro`` does a shipped path reach?

Copies the working tree to a temporary directory and writes a
``sitecustomize.py`` into the copy's ``src/``.  Every Python process
started there with ``src`` on its path (``PYTHONPATH=src``, which the
Makefile exports and every script and server child re-sets) installs
``sys.setprofile`` + ``threading.setprofile`` and, at exit, dumps the
``src/repro`` code objects it called.  The hook lives in the copy's
``src/`` rather than in an environment variable because
``scripts/serve_smoke.py`` and ``bench_e2e``'s server child reset
``PYTHONPATH``.

Two phases run in the copy:

1. the shipped consumers (:data:`CONSUMERS`): the examples smoke, the
   serve smoke, the two chaos specs, the golden episodes, ``bench_e2e
   --quick`` and the paper benchmarks (``--benchmark-disable``:
   pytest-benchmark calls ``sys.setprofile(None)`` around timed rounds);
2. tier-1.

An ``ast`` walk of every ``def`` under ``src/repro`` then classifies
each one as *shipped* (a consumer called it), *test-only* (only tier-1
did) or *reached by nothing*.  A def that is not shipped must be on
:data:`ALLOWLIST` with a one-line reason.  Exit status 1 when one is
not, when an entry is stale (it names no def) or when the allowlist
outgrows :data:`ALLOWLIST_CEILING`; an entry whose def a consumer now
reaches is printed as a note.

Run:  python scripts/reach.py   (= make reach; ~5 min)
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the shipped paths, each run from the copy's root
CONSUMERS = (
    ["make", "-s", "examples-smoke"],
    ["make", "-s", "serve-smoke"],
    ["make", "-s", "golden-check"],
    [sys.executable, "-m", "repro", "load", "--spec",
     "examples/specs/chaos_stall.json", "--requests", "64",
     "--concurrency", "8"],
    [sys.executable, "-m", "repro", "load", "--spec",
     "examples/specs/chaos_deadline.json", "--requests", "64",
     "--concurrency", "8"],
    [sys.executable, "-m", "bench_e2e", "--quick"],
    [sys.executable, "-m", "pytest", "benchmarks/", "-q",
     "--benchmark-disable", "-p", "no:cacheprovider"],
)
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]

#: ``module:qualname`` of every def no shipped path reaches, and why it
#: stays
ALLOWLIST: dict[str, str] = {
    "repro.baselines:_build_toolllm":
        "the `toolllm` scheme: the paper's ToolLLM memory-overflow "
        "baseline, which no shipped command runs",
    "repro.core.agent_base:FunctionCallingAgent.plan":
        "abstract hook every agent overrides",
    "repro.core.agent_base:FunctionCallingAgent.plan_batch":
        "the looping fallback for agents without a batched planner; shipped "
        "runs serve lis-k3, which has one",
    "repro.embedding.sentence:SentenceEmbedder.direction_count":
        "corpus directions interned, the probe the bounded-memory law and "
        "the embedder-sharing tests count with",
    "repro.engines.base:Engine.generate":
        "Protocol stub: the signature engines implement, never called "
        "itself",
    "repro.engines.openai_http:OpenAIHttpEngine.endpoint":
        "the chat-completions URL, for error messages and tests",
    "repro.engines.simulated:build_simulated":
        "registry entry for EngineSpec('simulated'); shipped specs leave "
        "the engine unset, which builds the same LLM directly",
    "repro.evaluation.reporting:comparison_paragraph":
        "ROADMAP 'Which claims are the method and which are the fit' "
        "decides whether grid reports ship",
    "repro.evaluation.reporting:grid_report":
        "ROADMAP 'Which claims are the method and which are the fit' "
        "decides whether grid reports ship",
    "repro.evaluation.stats:ConfidenceInterval.__contains__":
        "`x in ci`, the interval's membership test; tests use it",
    "repro.evaluation.stats:compare_runs":
        "ROADMAP 'Which claims are the method and which are the fit' "
        "decides the stats helpers",
    "repro.evaluation.stats:two_proportion_z":
        "ROADMAP 'Which claims are the method and which are the fit' "
        "decides the stats helpers",
    "repro.llm.chat:ChatTranscript.prompt_tokens":
        "token count of a rendered transcript, the reference tests hold the "
        "simulator's token accounting to",
    "repro.llm.chat:ChatTranscript.render":
        "the rendered transcript prompt_tokens counts, the reference tests "
        "hold the simulator's token accounting to",
    "repro.obs.sinks:NullSink.emit":
        "the `null` trace sink, named in the pinned wire fixture of "
        "ObsSpec; no shipped spec selects it",
    "repro.obs.sinks:TraceSink.emit":
        "Protocol stub: the signature sinks implement, never called itself",
    "repro.obs.sinks:_null_sink":
        "registry factory of the `null` trace sink (see NullSink.emit)",
    "repro.registry:Registry.unregister":
        "removes a plugin; tests tear their plugins down with it",
    "repro.serving.batcher:QueueFullError.__init__":
        "admission control's 429: shipped runs stay under queue_capacity",
    "repro.serving.http.app:GatewayHTTPApp._lifespan":
        "the ASGI lifespan protocol, driven by uvicorn in CI's uvicorn job; "
        "the builtin server uses the app's async-context form",
    "repro.serving.http.server:run_uvicorn":
        "reached only by CI's uvicorn job (make serve-smoke-uvicorn); "
        "uvicorn is an optional extra",
    "repro.serving.telemetry:Telemetry.record_rejection":
        "admission control's 429: shipped runs stay under queue_capacity",
    "repro.serving.telemetry:Telemetry.record_shed_request":
        "a request to a shed tenant; shipped budgets do not shed an "
        "admitted request",
    "repro.tools.catalog:suggest_names":
        "the 'did you mean' tail of unknown catalog-name errors; tests "
        "provoke one",
    "repro.tools.schema:ToolSpec.__getstate__":
        "pickling drops the cached hash; tests pickle specs",
    "repro.vectorstore.base:VectorIndex.ids":
        "stored ids in insertion order, for library users; tests read them",
    "repro.vectorstore.base:VectorIndex.reconstruct":
        "a stored vector by id, FAISS's reconstruct; tests read centroids "
        "back with it",
}

#: the allowlist may only shrink: a new excuse is a visible one-line
#: edit here, as ``LOC_CEILING`` in the Makefile makes LoC growth
ALLOWLIST_CEILING = 27

HOOK = '''\
"""Record the src/repro code objects this process calls (scripts/reach.py)."""
import atexit
import os
import sys
import threading

_SRC = os.path.dirname(os.path.abspath(__file__))
_PACKAGE = os.path.join(_SRC, "repro") + os.sep
_OUT = os.path.join(os.path.dirname(_SRC), ".reach")
_seen = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    lines = sorted({f"{os.path.relpath(path, _SRC)}\\t{code.co_firstlineno}"
                    for code in list(_seen.values())
                    for path in [os.path.abspath(code.co_filename)]
                    if path.startswith(_PACKAGE)})
    os.makedirs(_OUT, exist_ok=True)
    with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "a") as handle:
        handle.write("".join(line + "\\n" for line in lines))


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


@dataclass(frozen=True)
class Def:
    """One ``def`` under ``src/repro``."""

    key: str             # module:qualname
    path: str            # relative to src/
    first_line: int      # the code object's co_firstlineno
    n_lines: int
    parent: Def | None


def walk_defs(src: Path) -> list[Def]:
    """Every function definition under ``src/repro``, nested ones too."""
    found: list[Def] = []

    def visit(node: ast.AST, module: str, path: str, prefix: str,
              parent: Def | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                record = Def(f"{module}:{prefix}{child.name}", path, first,
                             child.end_lineno - first + 1, parent)
                found.append(record)
                visit(child, module, path, f"{prefix}{child.name}.", record)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.", parent)
            else:
                visit(child, module, path, prefix, parent)

    for file in sorted((src / "repro").rglob("*.py")):
        path = file.relative_to(src).as_posix()
        module = path[:-len(".py")].replace("/", ".").removesuffix(".__init__")
        tree = ast.parse(file.read_text(), filename=path)
        visit(tree, module, path, "", None)
    return found


def _collect(out: Path) -> set[tuple[str, int]]:
    """The (path, first line) pairs dumped since the last collect."""
    reached: set[tuple[str, int]] = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, first = line.split("\t")
            reached.add((path, int(first)))
        dump.unlink()
    return reached


def _run_phase(commands, tree: Path) -> set[tuple[str, int]]:
    env = {**os.environ, "PYTHONPATH": "src"}
    for command in commands:
        started = time.perf_counter()
        print(f"reach: $ {' '.join(command)}", flush=True)
        done = subprocess.run(command, cwd=tree, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            print(done.stdout[-4000:])
            raise SystemExit(f"reach: {command} exited {done.returncode}")
        print(f"reach:   ok in {time.perf_counter() - started:.0f} s",
              flush=True)
    return _collect(tree / ".reach")


def _lines(defs: list[Def]) -> int:
    """Lines of ``defs``, a nested def counted once with its parent."""
    members = set(defs)
    return sum(d.n_lines for d in defs if d.parent not in members)


def report(defs: list[Def], shipped: set, tested: set) -> int:
    """Print the classification; the exit status of the check."""
    keys = {d.key for d in defs}
    groups: dict[str, list[Def]] = {
        "shipped": [], "allowlisted": [], "test-only": [],
        "reached by nothing": []}
    for d in defs:
        where = (d.path, d.first_line)
        if where in shipped:
            groups["shipped"].append(d)
        elif d.key in ALLOWLIST:
            groups["allowlisted"].append(d)
        elif where in tested:
            groups["test-only"].append(d)
        else:
            groups["reached by nothing"].append(d)
    stale = sorted(set(ALLOWLIST) - keys)
    # an excuse a shipped path has since made moot: worth deleting, but
    # not a failure (a rare path may be reached on one run, not the next)
    moot = sorted({d.key for d in groups["shipped"]} & set(ALLOWLIST))

    for title in ("test-only", "reached by nothing"):
        for d in groups[title]:
            print(f"  {title}: {d.key} ({d.path}:{d.first_line}, "
                  f"{d.n_lines} lines)")
    for key in stale:
        print(f"  stale allowlist entry (no such def): {key}")
    for key in moot:
        print(f"  note: allowlisted but shipped: {key}")
    print(f"reach: {len(defs)} defs in src/repro")
    for title, group in groups.items():
        print(f"  {title:<20}{len(group):5d} defs {_lines(group):6d} lines")
    allowed_tested = sum((d.path, d.first_line) in tested
                         for d in groups["allowlisted"])
    print(f"    (allowlisted: {allowed_tested} test-only, "
          f"{len(groups['allowlisted']) - allowed_tested} reached by nothing)")
    print(f"  stale entries       {len(stale):5d}")
    print(f"  allowlist           {len(ALLOWLIST):5d} entries "
          f"(ceiling {ALLOWLIST_CEILING})")
    failed = (groups["test-only"] or groups["reached by nothing"] or stale
              or len(ALLOWLIST) > ALLOWLIST_CEILING)
    return 1 if failed else 0


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="repro-reach-"))
    tree = scratch / "tree"
    try:
        shutil.copytree(REPO_ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".benchmarks", ".bench_build", ".bench_e2e_tmp-*", ".reach"))
        (tree / "src" / "sitecustomize.py").write_text(HOOK)
        shipped = _run_phase(CONSUMERS, tree)
        tested = _run_phase([TIER1], tree)
        return report(walk_defs(tree / "src"), shipped, tested)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
