#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each one must be able to fail.

    python3 e2ebench/selftest.py

Feeds every check in run.py an output it must reject (and a matching one it
must accept), then drives the real helper: a replay of another program's
recording must be caught, and an operation that outlives its deadline must
be killed, counted as failed, and leave the round to finish. Exits 0 when
every check behaved.
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAILURES = []


def expect(name, cond):
    print(f"{'ok  ' if cond else 'FAIL'} {name}")
    if not cond:
        FAILURES.append(name)


def result(checksum_value, events, decoded=-1):
    return {"checksum": float(checksum_value).hex(),
            "checksum_value": float(checksum_value), "events": events,
            "decoded_entries": decoded, "elapsed_s": 0.01}


def pure_checks():
    scale = 0.05
    iters = run.scaled(scale, run.SYNTH_TOTAL_ITERS, 100)
    good = result(iters, iters, iters)
    expect("atomic: exact sum and event count accepted",
           run.check_op("omp_atomic", scale, "de_record", good) == [])
    expect("atomic: a lost update is flagged",
           run.check_op("omp_atomic", scale, "de_record",
                        result(iters - 1, iters, iters)) != [])
    expect("critical: a wrong expected event count is flagged",
           run.check_op("omp_critical", 2 * scale, "st_record", good) != [])
    expect("reduction: a sum other than its private iterations is flagged",
           run.check_op("omp_reduction", scale, "plain",
                        result(iters, 0)) != [])
    expect("data_race: a sum above the iteration count is flagged",
           run.check_op("data_race", scale, "plain",
                        result(iters + 1, 0)) != [])
    expect("data_race: a zero sum is flagged",
           run.check_op("data_race", scale, "plain", result(0, 0)) != [])
    expect("decoded trace entries differing from total_events are flagged",
           run.check_op("AMG", 1.0, "dc_record",
                        result(1.5, 100, 99)) != [])
    expect("replay: identical checksum and events accepted",
           run.check_replay("AMG", "dc", result(1.5, 100),
                            result(1.5, 100)) == [])
    expect("replay: a checksum off by one ulp is flagged",
           run.check_replay("AMG", "dc", result(1.5, 100),
                            result(1.5000000000000002, 100)) != [])
    expect("replay: a different event count is flagged",
           run.check_replay("AMG", "dc", result(1.5, 100),
                            result(1.5, 101)) != [])
    expect("synthetic event counts differing across strategies are flagged",
           run.check_strategies_agree(
               "omp_atomic", {"st": good, "dc": good,
                              "de": result(iters, iters + 1)}) != [])


def live_checks(tool):
    root = os.path.join(run.build_root(), "e2ebench", "selftest")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    runner = run.Runner(tool, root, True, run.Tracer(False))
    try:
        scale = 0.05
        rec, err = runner.op("omp_atomic", scale, 7, "record", "de", {})
        expect("helper records omp_atomic", rec is not None)
        rep, err = runner.op("omp_atomic", scale, 7, "replay", "de", {})
        expect("its own replay passes the replay check",
               rep is not None and run.check_replay("omp_atomic", "de", rec,
                                                    rep) == [])
        # data_race replayed from omp_atomic's recording.
        shutil.rmtree(runner.rec_dir("data_race", "de"), ignore_errors=True)
        shutil.copytree(runner.rec_dir("omp_atomic", "de"),
                        runner.rec_dir("data_race", "de"))
        wrong, err = runner.op("data_race", scale, 7, "replay", "de", {})
        caught = wrong is None or run.check_replay("data_race", "de", rec,
                                                   wrong) != []
        expect("replaying another program's recording is caught"
               f" ({err or 'checksum/events mismatch'})", caught)

        before = runner.hung_retries
        before_attempts = runner.process_attempts
        rnd = run.run_round(runner, [("omp_critical", scale)],
                            {"omp_critical": 7}, {}, deadline=0.001)
        expect("an operation past its deadline is killed and counted as"
               " failed, and the round completes",
               rnd.failed == rnd.attempted == run.PLAIN_REPEATS + 3
               and runner.hung_retries - before
               == runner.process_attempts - before_attempts
               == rnd.attempted * run.OP_ATTEMPTS)
        expect("a replay whose recording failed is not attempted",
               not any(rnd.complete.values()))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main():
    pure_checks()
    tool, _ = run.ensure_built()
    live_checks(tool)
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} FAILED")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
