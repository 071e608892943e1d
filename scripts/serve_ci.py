#!/usr/bin/env python3
"""CI driver for the `dise serve` job.

Pipes a mixed batch of concurrent requests (every pair of a `dise gen`
corpus, each sent twice, shuffled deterministically) into one resident
server, then byte-diffs each `analyze` response's `output` member
against the one-shot CLI's verdict residue
(`dise run … --stats json | grep -v '^{'`) and checks that duplicate
requests got byte-identical responses from the cache/coalescing layer.

The contention leg reruns the batch against a server sharing a `--store`
directory with concurrent one-shot CLI runs of the same pairs: the
advisory store lock must keep both sides clean (identical verdicts, a
store `stat` that parses, no crashes).

Usage: serve_ci.py <dise-binary> <corpus-dir>
"""

import json
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path


def fail(message):
    print(f"serve-ci: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def one_shot_residue(dise, base, mod, proc, store=None):
    cmd = [dise, "run", str(base), str(mod), proc, "--stats", "json"]
    if store:
        cmd += ["--store", str(store)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"one-shot run failed for {base}: {out.stderr}")
    return "".join(
        line + "\n" for line in out.stdout.splitlines() if not line.startswith("{")
    )


def write_requests(stdin, requests):
    for request in requests:
        stdin.write(json.dumps(request) + "\n")
    stdin.flush()


def run_server(dise, requests, extra_args=(), last=None):
    """Sends `requests` to one `dise serve` process and reads until every
    one has answered; only then sends `last` (if given), so it observes
    the batch settled, and closes stdin. Returns {id: [(line, value)]}."""
    with tempfile.TemporaryFile(mode="w+") as stderr:
        proc = subprocess.Popen(
            [dise, "serve", *extra_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
        )
        # A writer thread, so a long batch cannot deadlock against
        # responses filling the stdout pipe.
        writer = threading.Thread(target=write_requests, args=(proc.stdin, requests))
        writer.start()
        responses = {}

        def record(line):
            try:
                value = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"unparseable response line {line!r}: {e}")
            responses.setdefault(value.get("id"), []).append((line.rstrip("\n"), value))

        pending = {r["id"] for r in requests}
        while pending:
            line = proc.stdout.readline()
            if not line:
                break
            record(line)
            pending.difference_update(responses)
        writer.join()
        if last is not None and not pending:
            write_requests(proc.stdin, [last])
        proc.stdin.close()
        for line in proc.stdout:
            record(line)
        if proc.wait() != 0:
            stderr.seek(0)
            fail(f"serve exited with {proc.returncode}: {stderr.read()}")
    return responses


def main():
    args = sys.argv[1:]
    if len(args) != 2:
        fail(__doc__)
    dise, corpus = args[0], Path(args[1])
    manifest = json.loads((corpus / "manifest.json").read_text())
    proc_name = manifest["proc"]
    pairs = [
        (corpus / p["base"], corpus / p["modified"]) for p in manifest["pairs"]
    ]
    if not pairs:
        fail("empty corpus")

    # --- Leg 1: mixed concurrent batch, byte-diffed vs one-shot runs ----
    requests = []
    next_id = 1
    for i, (base, mod) in enumerate(pairs):
        for dup in range(2):  # every pair twice: the repeat must coalesce/hit
            requests.append(
                {
                    "jsonrpc": "2.0",
                    "id": next_id,
                    "method": "analyze",
                    "params": {
                        "request_id": f"pair{i:04}-{dup}",
                        "proc": proc_name,
                        "base_path": str(base),
                        "mod_path": str(mod),
                    },
                }
            )
            next_id += 1
    random.Random(0).shuffle(requests)  # deterministic mixing
    status_id = next_id
    # `status` goes out only after every analyze request has answered, so
    # no duplicate is still in flight when the counters are read.
    responses = run_server(
        dise, requests, last={"jsonrpc": "2.0", "id": status_id, "method": "status"}
    )
    for request_id in [r["id"] for r in requests] + [status_id]:
        if request_id not in responses:
            fail(f"no response for id {request_id}")

    outputs = {}
    for request in requests:
        line, value = responses[request["id"]][0]
        result = value.get("result")
        if result is None:
            fail(f"request {request['id']} errored: {line}")
        pair_tag = request["params"]["request_id"].rsplit("-", 1)[0]
        outputs.setdefault(pair_tag, []).append(result["output"])
    for i, (base, mod) in enumerate(pairs):
        expected = one_shot_residue(dise, base, mod, proc_name)
        for output in outputs[f"pair{i:04}"]:
            if output != expected:
                fail(
                    f"pair {i}: serve output diverges from the one-shot residue\n"
                    f"serve:\n{output}\none-shot:\n{expected}"
                )

    _, status = responses[status_id][0]
    m = status["result"]
    if m["explorations"] > len(pairs):
        fail(f"{m['explorations']} explorations for {len(pairs)} distinct pairs: {m}")
    if m["cache_hits"] + m["coalesced"] < len(pairs):
        fail(f"duplicates neither hit nor coalesced: {m}")
    print(
        f"serve-ci: leg 1 OK — {len(pairs)} pairs x2: "
        f"{m['explorations']} explorations, {m['cache_hits']} hits, "
        f"{m['coalesced']} coalesced, outputs byte-identical to one-shot runs"
    )

    # --- Leg 2: shared-store contention with concurrent one-shot runs ---
    with tempfile.TemporaryDirectory(prefix="dise-serve-ci-store") as store:
        cli_procs = [
            subprocess.Popen(
                [dise, "run", str(b), str(m_), proc_name, "--stats", "json",
                 "--store", store],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for b, m_ in pairs
        ]
        responses = run_server(dise, requests, ["--store", store])
        for p, (b, _) in zip(cli_procs, pairs):
            out, err = p.communicate(timeout=300)
            if p.returncode != 0:
                fail(f"concurrent one-shot run for {b} failed under contention: {err}")
        for request in requests:
            line, value = responses[request["id"]][0]
            if value.get("result") is None:
                fail(f"serve request {request['id']} errored under contention: {line}")
        stat = subprocess.run(
            [dise, "store", "stat", store], capture_output=True, text=True
        )
        if stat.returncode != 0:
            fail(f"store stat failed after contention: {stat.stderr}")
        # Both sides kept writing; the verdicts must still match one-shots.
        for i, (base, mod) in enumerate(pairs):
            expected = one_shot_residue(dise, base, mod, proc_name)
            _, value = responses[
                next(
                    r["id"] for r in requests
                    if r["params"]["request_id"] == f"pair{i:04}-0"
                )
            ][0]
            if value["result"]["output"] != expected:
                fail(f"pair {i}: contention leg verdict diverged")
        print(
            f"serve-ci: leg 2 OK — shared store survived {len(pairs)} concurrent "
            f"one-shot runs + server saves; store stat clean"
        )


if __name__ == "__main__":
    main()
