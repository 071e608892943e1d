#!/usr/bin/env python3
"""CI driver for the `dise serve` job.

Pipes a mixed batch of concurrent requests (every pair of a `dise gen`
corpus, each sent twice, plus a whitespace-reformatted copy of one
pair's modified file, shuffled deterministically) into one resident
server, then byte-diffs each `analyze` response's `output` member
against the one-shot CLI's verdict residue
(`dise run … --stats json | grep -v '^{'`) and checks that duplicate
requests got byte-identical responses from the cache/coalescing layer.
After the batch settles, one more byte-identical repeat must be
answered from its request bytes alone (the `fingerprinted` counter).

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


def run_server(dise, requests, extra_args=(), tail=()):
    """Sends `requests` to one `dise serve` process and reads until every
    one has answered; only then sends each request of `tail` in turn,
    each after the one before it answered, so it observes everything
    before it settled, and closes stdin. Returns {id: [(line, value)]}."""
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

        def drain(pending):
            while pending:
                line = proc.stdout.readline()
                if not line:
                    break
                record(line)
                pending.difference_update(responses)
            return not pending

        settled = drain({r["id"] for r in requests})
        writer.join()
        for request in tail:
            if not settled:
                break
            write_requests(proc.stdin, [request])
            settled = drain({request["id"]})
        proc.stdin.close()
        for line in proc.stdout:
            record(line)
        if proc.wait() != 0:
            stderr.seek(0)
            fail(f"serve exited with {proc.returncode}: {stderr.read()}")
    return responses


def reformatted_copy(source_path, out_dir):
    """A whitespace-only reformatting of `source_path` in `out_dir`:
    same program, different bytes."""
    text = source_path.read_text()
    copy = Path(out_dir) / ("reformatted-" + source_path.name)
    copy.write_text("\n" + text.replace("\n", " \n\n"))
    return copy


def analyze_request(request_id, tag, proc_name, base, mod):
    return {
        "jsonrpc": "2.0",
        "id": request_id,
        "method": "analyze",
        "params": {
            "request_id": tag,
            "proc": proc_name,
            "base_path": str(base),
            "mod_path": str(mod),
        },
    }


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
                analyze_request(next_id, f"pair{i:04}-{dup}", proc_name, base, mod)
            )
            next_id += 1
    reformat_dir = tempfile.TemporaryDirectory(prefix="dise-serve-ci-reformatted")
    # Pair 0's modified file, reformatted: new bytes, same fingerprint, so
    # it must share pair 0's entry rather than explore.
    base0, mod0 = pairs[0]
    requests.append(
        analyze_request(
            next_id,
            "pair0000-reformatted",
            proc_name,
            base0,
            reformatted_copy(mod0, reformat_dir.name),
        )
    )
    next_id += 1
    random.Random(0).shuffle(requests)  # deterministic mixing
    # The tail goes out only after every batch request has answered: a
    # third copy of pair 0, which must hit on its bytes alone, then
    # `status`, so no duplicate is still in flight when the counters are
    # read.
    repeat = analyze_request(next_id, "pair0000-2", proc_name, base0, mod0)
    status_id = next_id + 1
    responses = run_server(
        dise,
        requests,
        tail=[repeat, {"jsonrpc": "2.0", "id": status_id, "method": "status"}],
    )
    analysis = requests + [repeat]
    for request_id in [r["id"] for r in analysis] + [status_id]:
        if request_id not in responses:
            fail(f"no response for id {request_id}")

    outputs = {}
    for request in analysis:
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
    if m["cache_hits"] + m["coalesced"] < len(pairs) + 2:
        fail(f"duplicates neither hit nor coalesced: {m}")
    if m["fingerprinted"] >= len(analysis):
        fail(f"no request was answered from its bytes alone: {m}")
    print(
        f"serve-ci: leg 1 OK — {len(pairs)} pairs x2 + a reformatted copy "
        f"+ a settled repeat: {m['explorations']} explorations, "
        f"{m['cache_hits']} hits, {m['coalesced']} coalesced, "
        f"{m['fingerprinted']} fingerprinted, outputs byte-identical to "
        f"one-shot runs"
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
    reformat_dir.cleanup()


if __name__ == "__main__":
    main()
