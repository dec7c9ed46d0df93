"""Benchmark of the `congruent` command line: scans and single-n checks.

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Workloads (README.md gives the reasons):

  scan_cold    `congruent scan --max 500000` on an empty --cache file, a fresh
               process per operation
  scan_warm    the same scan against the cache file a cold scan filled in set-up
  check_large  `congruent check -n N --json` for 60 hypothesis n from
               [10^6, 10^7] (oracle.check_sample), in three worker processes
               per round

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics, their times scaled to a reference machine speed (see
Runner.scale); the unscaled figures go to standard error.  With --trace 1
each round runs an untraced and a traced operation on the same inputs and
the object holds the per-layer metrics.
Every output is checked against perfbench/oracle.py, which does not import the
program.  The exit status is 0 when the outputs are correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracle  # noqa: E402

WORKLOADS = ("scan_cold", "scan_warm", "check_large")


@dataclass(frozen=True)
class Config:
    scan_limit: int = 500_000
    check_count: int = 60
    check_exponents: tuple[float, float] = (6.0, 7.0)
    row_sample: int = 256  # scan rows whose class numbers are recomputed
    report_sample: int = 32  # check reports whose class numbers are recomputed


CHECK_CHUNKS = 3  # worker processes a check round is split into
# The machine's speed: a fresh interpreter that imports numpy, a start-up no
# change to the program alters, timed next to every set-up sample.
REFERENCE = ("-c", "import numpy")
REFERENCE_S = 0.18  # its median time on the machine of the README's figures
OP_TIMEOUT_S = 150.0

# per-layer metrics, as BENCHMARK.json declares them: name -> unit
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}

# self-time metrics: metric -> spans whose self time it sums (see tracer.TARGETS)
SELF_TIME = {
    "scan.self_s": ("scan.loop", "scan.sieve"),
    "scan.sieve_s": ("scan.sieve",),
    "scan.cache_load_s": ("scan.cache_load",),
    "scan.cache_record_s": ("scan.cache_record",),
    "scan.emit_s": ("scan.emit",),
    "tunnell.table_s": ("tunnell.table",),
    "tunnell.classify_s": ("tunnell.classify",),
    "arith.factor_s": ("arith.factor",),
    "redei.build_hypothesis_s": ("redei.build_hypothesis",),
    "redei.ranks_s": ("redei.ranks",),
    "norms.rep_s": ("norms.rep",),
    "selmer.selmer_rank_s": ("selmer.selmer_rank",),
    "gf2.rank_s": ("gf2.rank",),
    "classgroup.discriminant_s": ("classgroup.discriminant",),
    "classgroup.class_number_s": ("classgroup.class_number",),
    "classgroup.snapshot_s": ("classgroup.snapshot",),
    "criteria.evaluate_self_s": ("criteria.evaluate",),
    "criteria.invariants_s": ("criteria.invariants",),
    "cli.self_s": ("cli.main",),
}
CALLS = {
    "scan.cache_record_calls": "scan.cache_record",
    "tunnell.classify_calls": "tunnell.classify",
    "arith.factor_calls": "arith.factor",
    "redei.build_hypothesis_calls": "redei.build_hypothesis",
    "gf2.rank_calls": "gf2.rank",
    "classgroup.discriminant_calls": "classgroup.discriminant",
    "classgroup.class_number_calls": "classgroup.class_number",
    "classgroup.snapshot_calls": "classgroup.snapshot",
    "criteria.evaluate_calls": "criteria.evaluate",
}
PER_ROW = {
    "arith.factor_calls_per_row": "arith.factor",
    "redei.build_hypothesis_calls_per_row": "redei.build_hypothesis",
}
# counted by the tracer's generator wrappers
YIELDS = {"scan.candidates": ("candidates", "scan.sieve"), "scan.rows": ("rows", "scan.loop")}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to run, or the program crashed)."""


# ----------------------------------------------------------------- processes


def _proc_tree(root: int) -> list[int]:
    """root and its descendants, from /proc/<pid>/task/<tid>/children."""
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return tree


def _hwm_kib(pid: int):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class TreeMemory:
    """Peak resident memory of a process together with every process it starts.

    The high-water marks (VmHWM) of all processes in its tree are sampled
    every 20 ms and summed, so a program that runs several processes at once
    is charged for all of them.  The child's ru_maxrss from wait4() is no
    measure of the program: Linux keeps in it the peak of the image the child
    replaced at exec, here the benchmark's own process, about 62 MiB with
    sympy and numpy loaded.  It is used only if no sample was taken.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.hwm: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(0.02):
            for pid in _proc_tree(self.pid):
                kib = _hwm_kib(pid)
                if kib is not None:
                    self.hwm[pid] = kib

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mib(self, child_maxrss_kib: int) -> float:
        return (sum(self.hwm.values()) or child_maxrss_kib) / 1024.0


@dataclass
class Proc:
    wall_s: float
    rc: int
    peak_mib: float
    stderr: str


class Runner:
    def __init__(self, root: str, work: str, config: Config):
        self.root = root
        self.work = work
        self.config = config
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self._n = 0
        self.imports: list[float] = []  # set-up samples: start and import congruent.cli
        self.refs: list[float] = []  # REFERENCE samples, one next to each set-up sample

    def run(self, argv: list[str]) -> Proc:
        """Run one process to its end; time it, with its peak memory and exit code."""
        self._n += 1
        err_path = os.path.join(self.work, f"stderr-{self._n}.txt")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            mem = TreeMemory(proc.pid)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                mem.stop()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Proc(wall, proc.returncode, mem.peak_mib(usage.ru_maxrss), stderr)

    def sample_machine(self) -> None:
        """Take one set-up sample (start the interpreter, import congruent.cli)
        and one REFERENCE sample.

        A run calls this before each operation (each chunk, for checks) and
        after its last, so that the medians of both span the run.
        """
        for argv, walls in ((["-c", "import congruent.cli"], self.imports), (list(REFERENCE), self.refs)):
            p = self.run([sys.executable, *argv])
            if p.rc != 0:
                raise BenchError(f"`python3 {' '.join(argv)}` failed in {self.root}:\n{p.stderr}")
            walls.append(p.wall_s)

    def scale(self) -> float:
        """REFERENCE_S over the run's median REFERENCE time.

        This machine's speed drifts by 10% to 25% over minutes, and every
        process slows with it; a time multiplied by the scale reads as on a
        machine where REFERENCE takes REFERENCE_S (README: Machine noise).
        """
        return REFERENCE_S / statistics.median(self.refs)

    def scan_argv(self, cache: str, out: str) -> list[str]:
        return ["scan", "--max", str(self.config.scan_limit), "--cache", cache, "--out", out]

    def scan_command(self, cache: str, out: str) -> list[str]:
        """The user's command: `congruent scan ...` (the console script runs cli.main too)."""
        return [sys.executable, "-m", "congruent.cli", *self.scan_argv(cache, out)]

    def child(self, tag: str, args: list[str], trace: bool) -> tuple[Proc, dict]:
        result = os.path.join(self.work, f"{tag}.json")
        extra = ["--spans", os.path.join(self.work, f"{tag}-spans.csv")] if trace else []
        p = self.run([sys.executable, os.path.join(HERE, "child.py"), "--result", result, *extra, *args])
        data = {}
        if p.rc == 0:
            with open(result, encoding="utf-8") as fh:
                data = json.load(fh)
        return p, data


# ----------------------------------------------------------------- workloads


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # operations that did not complete
    problems: list[str] = field(default_factory=list)  # wrong outputs of operations that did
    metrics: dict = field(default_factory=dict)

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(what)


def _truncate(path: str) -> None:
    open(path, "w").close()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def scan_workload(r: Runner, warm: bool, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    cfg = r.config
    cache = os.path.join(r.work, "h.cache")
    fill_s = 0.0
    reference = None  # bytes every scan output must equal
    if warm:
        _truncate(cache)
        fill = os.path.join(r.work, "fill.csv")
        p = r.run(r.scan_command(cache, fill))
        if p.rc != 0:
            raise BenchError(f"the cold scan that fills the cache failed:\n{p.stderr}")
        fill_s = p.wall_s
        reference = _read_bytes(fill)

    walls, peaks, traced = [], [], []
    first_csv = None
    begin = time.perf_counter()
    while out.attempted == 0 or time.perf_counter() - begin < seconds:
        i = out.attempted
        csv_path = os.path.join(r.work, f"op-{i}.csv")
        r.sample_machine()
        if not warm:
            _truncate(cache)
        out.attempted += 1
        p = r.run(r.scan_command(cache, csv_path))
        if p.rc != 0:
            out.fail(f"scan op {i} exited {p.rc}: {p.stderr[-500:]}")
            continue
        walls.append(p.wall_s)
        peaks.append(p.peak_mib)
        first_csv = first_csv or csv_path
        reference = _check_identical(out, reference, csv_path)
        if trace:
            if not warm:
                _truncate(cache)
            tag = f"traced-{i}"
            traced_csv = os.path.join(r.work, f"{tag}.csv")
            out.attempted += 1
            tp, data = r.child(tag, r.scan_argv(cache, traced_csv), trace=True)
            if tp.rc != 0 or data["ops"][0]["rc"] != 0:
                out.fail(f"traced scan op {i} failed: {tp.stderr[-500:]}")
                continue
            reference = _check_identical(out, reference, traced_csv)
            data["traced_s"], data["untraced_s"] = tp.wall_s, p.wall_s
            data["emit_bytes"] = os.path.getsize(traced_csv)
            traced.append(data)

    r.sample_machine()
    if first_csv:
        out.problems += oracle.check_scan_rows(oracle.read_csv(first_csv), cfg.scan_limit, seed, cfg.row_sample)
    if trace:
        out.metrics = per_layer_metrics(traced, per_op=1)
    elif walls:
        out.metrics = end_to_end(r, fill_s, cfg.scan_limit, walls, peaks)
    return out


def _check_identical(out: Outcome, reference, path: str):
    data = _read_bytes(path)
    if reference is None:
        return data
    if data != reference:
        out.problems.append(f"{os.path.basename(path)} differs from the first scan output")
    return reference


def check_workload(r: Runner, seed: int, seconds: float, trace: bool) -> Outcome:
    """Rounds of `check -n N --json` over the seeded sample, each round split
    into CHECK_CHUNKS worker processes with set-up samples between them."""
    out = Outcome()
    cfg = r.config
    lo, hi = cfg.check_exponents
    ns = oracle.check_sample(seed, cfg.check_count, lo, hi)
    chunks = []
    for k in range(CHECK_CHUNKS):
        part = ns[k::CHECK_CHUNKS]
        if part:
            path = os.path.join(r.work, f"ns-{k}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("".join(f"{n}\n" for n in part))
            chunks.append((path, len(part)))
    times, peaks, traced = [], [], []
    reference = None  # the outputs of the first round, which every round must repeat
    begin = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - begin < seconds:
        outputs, reports = {}, []
        for k, (ns_path, size) in enumerate(chunks):
            r.sample_machine()
            untraced_ops = {}
            for traced_run in (False, True) if trace else (False,):
                tag = f"{'traced' if traced_run else 'round'}-{rnd}-{k}"
                out.attempted += size
                p, data = r.child(tag, ["--checks", ns_path], trace=traced_run)
                if p.rc != 0:
                    out.fail(f"check worker {tag} exited {p.rc}: {p.stderr[-500:]}", size)
                    continue
                good = []
                for op in data["ops"]:
                    if op["rc"] != 0:
                        out.fail(f"check -n {op['n']} returned {op['rc']}")
                    else:
                        good.append(op)
                if traced_run:
                    data["wall_s"] = data["traced_s"] = sum(op["s"] for op in good)
                    data["untraced_s"] = sum(untraced_ops.get(op["n"], 0.0) for op in good)
                    data["emit_bytes"] = 0
                    data["ops"] = good
                    traced.append(data)
                else:
                    untraced_ops = {op["n"]: op["s"] for op in good}
                    times += [op["s"] for op in good]
                    peaks.append(p.peak_mib)
                    reports += [(op["n"], op["out"]) for op in good]
                for op in good:
                    if outputs.setdefault(op["n"], op["out"]) != op["out"]:
                        out.problems.append(f"{tag}: the traced report for n={op['n']} differs")
        if reference is None:
            reference = outputs
            parsed = [json.loads(text) for _, text in reports]
            out.problems += oracle.check_reports(parsed, [n for n, _ in reports], seed, cfg.report_sample)
        elif any(reference.get(n, text) != text for n, text in outputs.items()):
            out.problems.append(f"round {rnd}: a report differs from the first round's")
        rnd += 1
    r.sample_machine()
    if trace:
        out.metrics = per_layer_metrics(traced, per_op=None)
    elif times:
        out.metrics = end_to_end(r, 0.0, 1, times, peaks)
    return out


def end_to_end(r: Runner, fill_s: float, n_per_op: int, times: list[float], peaks: list[float]) -> dict:
    """The end-to-end metrics of one run, from its operations' times and peaks.

    setup_s is the median set-up sample plus fill_s, the cold scan that fills
    scan_warm's cache.  Times are scaled by r.scale(); memory is not.  A scan
    run has five to thirteen operations, so its p90 is close to its slowest
    operation and is no tail; a check run has 120 or more.
    """
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    raw = {
        "setup_s": statistics.median(r.imports) + fill_s,
        "n_per_s": n_per_op * len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
    }
    scale = r.scale()
    print(
        f"reference median {statistics.median(r.refs):.4f} s over {len(r.refs)} samples, scale {scale:.4f}; "
        + ", ".join(f"unscaled {k} {v:.6g}" for k, v in raw.items()),
        file=sys.stderr,
    )
    return {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "n_per_s": (raw["n_per_s"] / scale, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms"),
        "latency_p90_ms": (raw["latency_p90_ms"] * scale, "ms"),
        "peak_rss_mib": (max(peaks), "MiB"),
    }


def per_layer_metrics(traced: list[dict], per_op) -> dict:
    """Per-layer metrics per traced operation, from the traced children's summaries.

    per_op is the number of operations each traced child ran (1 for a scan);
    None takes it from the child's op list (check rounds).  Scan rows are the
    rows a scan yields; for checks, each report counts as one row.  A metric
    whose every span is missing from the program is reported as 0 and named
    on stderr as absent.
    """
    ops = sum(per_op or len(d["ops"]) for d in traced)
    if not ops:
        return {}
    self_s, calls, counts = {}, {}, {}
    absent = set(traced[0]["trace"]["absent"])
    for d in traced:
        t = d["trace"]
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
    rows = counts.get("rows", 0) if per_op else ops
    candidates = counts.get("candidates", 0)
    memo_known = all(d["memo_after"] is not None for d in traced)
    fresh = sum(d["memo_after"] - d["memo_before"] - d["cache_loaded"] for d in traced) if memo_known else 0
    class_calls = calls.get("classgroup.class_number", 0)
    import_s = self_s.get("cli.import", 0.0)
    # a scan child's wall_s runs from its first line to the end of its operation
    # (the span file is written after it); a check child's is the sum of its operations
    covered = sum(self_s.values()) - (0.0 if per_op else import_s)
    traced_s = sum(d["traced_s"] for d in traced)

    values, gone = {}, []

    def put(name, value, spans):
        if spans and all(s in absent for s in spans):
            gone.append(name)
            value = 0
        values[name] = value

    for name, spans in SELF_TIME.items():
        put(name, sum(self_s.get(s, 0.0) for s in spans) / ops, spans)
    for name, span in CALLS.items():
        put(name, calls.get(span, 0) / ops, (span,))
    for name, span in PER_ROW.items():
        put(name, calls.get(span, 0) / rows if rows else 0.0, (span,))
    for name, (counter, span) in YIELDS.items():
        put(name, counts.get(counter, 0) / ops, (span,))
    put("scan.rows_per_candidate", counts.get("rows", 0) / candidates if candidates else 0.0, ("scan.sieve",))
    put("scan.cache_loaded", sum(d["cache_loaded"] for d in traced) / ops, ("scan.cache_load",))
    put("scan.emit_bytes", sum(d["emit_bytes"] for d in traced) / ops, ("scan.emit",))
    if not memo_known:
        gone += ["classgroup.fresh", "classgroup.memo_hit_ratio"]
    values["classgroup.fresh"] = fresh / ops
    values["classgroup.memo_hit_ratio"] = (class_calls - fresh) / class_calls if class_calls and memo_known else 0.0
    values["cli.import_s"] = import_s / len(traced)
    values["trace.op_s"] = traced_s / ops
    values["trace.overhead_s"] = (traced_s - sum(d["untraced_s"] for d in traced)) / ops
    values["trace.coverage"] = covered / sum(d["wall_s"] for d in traced)
    values["trace.spans"] = sum(d["trace"]["spans"] for d in traced) / ops
    if gone:
        print(f"absent from the program, reported as 0: {', '.join(sorted(gone))}", file=sys.stderr)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


# ----------------------------------------------------------------- entry


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, config: Config = Config()) -> dict:
    if not os.path.isfile(os.path.join(root, "src", "congruent", "cli.py")):
        raise BenchError(f"no program at {root}/src/congruent: run from the root of a checkout")
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        runner = Runner(root, work, config)
        if workload == "check_large":
            out = check_workload(runner, seed, seconds, trace)
        else:
            out = scan_workload(runner, workload == "scan_warm", seed, seconds, trace)
        for name in sorted(os.listdir(work)):  # keep the last traced operation's spans
            if name.endswith("-spans.csv"):
                shutil.move(os.path.join(work, name), os.path.join(work_root, f"{workload}-spans.csv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out.failed == out.attempted:
        out.problems.append("no operation completed")
    return {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
        "problems": out.failures + out.problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), os.getcwd())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in result.pop("problems")[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
