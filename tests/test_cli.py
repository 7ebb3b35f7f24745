"""CLI dispatch: subcommands, exit codes, dry runs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from claimkit.backends.embeddings import EMBED_CHUNK
from claimkit.cli import dispatch
from claimkit.corpus import ClaimRecord, HeuristicEntityCounter, Label, ingest_claims, write_claims
from claimkit.funnel import FunnelReport, RuleThresholds, rule_filter
from claimkit.synthetic import funnel_corpus, holdout_corpus

VALID_TRACE = (
    "<think>plan</think>\n"
    "<question>Did she move to Paris?</question>\n"
    "<answer>Yes, the document says Paris.</answer>\n"
    "<question>Was the year 1921?</question>\n"
    "<answer>Yes, 1921.</answer>\n"
    "<verification>{verdict}</verification>"
)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    # Written once and only read: generating the corpus dominates test setup.
    records = funnel_corpus()
    holdout = holdout_corpus(records)
    corpus_dir = tmp_path_factory.mktemp("corpus")
    claims = corpus_dir / "claims.jsonl"
    hold = corpus_dir / "holdout.jsonl"
    write_claims(records, claims)
    write_claims(holdout, hold)
    return claims, hold


@pytest.fixture()
def funnel_config(tmp_path, corpus_files):
    claims, hold = corpus_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "inputs": [str(claims)],
        "holdouts": [str(hold)],
        "budget": 10,
        "seed": 3,
        "cache_dir": str(tmp_path / "cache"),
    }))
    return cfg


class TestFunnelCommands:
    def test_run_and_report(self, tmp_path, funnel_config, capsys):
        out = tmp_path / "out.jsonl"
        report = tmp_path / "report.json"
        code = dispatch(["funnel", "run", "--config", str(funnel_config),
                         "--out", str(out), "--report", str(report)])
        assert code == 0
        assert out.exists() and report.exists()
        records = ingest_claims(out)
        assert all(r.silver_question_count >= 2 for r in records)

        code = dispatch(["funnel", "report", "--report", str(report)])
        assert code == 0
        text = capsys.readouterr().out
        assert "rule_filter" in text and "augment" in text

    def test_workers_byte_identical(self, tmp_path, funnel_config):
        outs = []
        for workers in ("1", "8"):
            out = tmp_path / f"out{workers}.jsonl"
            report = tmp_path / f"report{workers}.json"
            assert dispatch(["funnel", "run", "--config", str(funnel_config),
                             "--out", str(out), "--report", str(report),
                             "--workers", workers]) == 0
            outs.append((out.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]

    def test_config_cache_dir_used_unless_flag_given(self, tmp_path, funnel_config,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["funnel", "run", "--config", str(funnel_config),
                "--out", "out.jsonl", "--report", "report.json"]
        assert dispatch(argv) == 0
        assert any((tmp_path / "cache").iterdir())
        assert not (tmp_path / ".claimkit-cache").exists()
        assert dispatch(argv + ["--cache-dir", "flag-cache"]) == 0
        assert any((tmp_path / "flag-cache").iterdir())

    @pytest.mark.parametrize("flag, seed", [([], 3), (["--seed", "0"], 0), (["--seed", "5"], 5)])
    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch, flag, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": ["unread.jsonl"], "budget": 1, "seed": 3}))
        seen = []

        def fake_run(config):
            seen.append(config.seed)
            return [], FunnelReport()

        monkeypatch.setattr("claimkit.cli.run_funnel", fake_run)
        assert dispatch(["funnel", "run", "--config", str(cfg),
                         "--out", str(tmp_path / "o.jsonl"),
                         "--report", str(tmp_path / "r.json")] + flag) == 0
        assert seen == [seed]

    def test_dry_run_touches_nothing(self, tmp_path, funnel_config):
        out = tmp_path / "out.jsonl"
        code = dispatch(["funnel", "run", "--config", str(funnel_config),
                         "--out", str(out), "--report", str(tmp_path / "r.json"),
                         "--dry-run"])
        assert code == 0
        assert not out.exists()

    def test_missing_config_is_failure(self, tmp_path):
        code = dispatch(["funnel", "run", "--config", str(tmp_path / "nope.json"),
                         "--out", "o", "--report", "r"])
        assert code == 1


class TestStandaloneStages:
    def test_dedup(self, tmp_path, corpus_files, capsys):
        claims, _ = corpus_files
        out = tmp_path / "dd.jsonl"
        assert dispatch(["dedup", "--claims", str(claims), "--out", str(out),
                         "--cache-dir", str(tmp_path / "c")]) == 0
        assert len(ingest_claims(out)) < 200

    def test_decontaminate(self, tmp_path, corpus_files):
        claims, hold = corpus_files
        out = tmp_path / "dc.jsonl"
        assert dispatch(["decontaminate", "--claims", str(claims),
                         "--holdout", str(hold), "--out", str(out),
                         "--cache-dir", str(tmp_path / "c")]) == 0
        kept_ids = {r.id for r in ingest_claims(out)}
        hold_claims = {r.claim for r in ingest_claims(hold)}
        assert all(r.claim not in hold_claims for r in ingest_claims(out)
                   if r.id in kept_ids)

    def test_select_respects_budget(self, tmp_path, corpus_files):
        claims, _ = corpus_files
        out = tmp_path / "sel.jsonl"
        assert dispatch(["select", "--claims", str(claims), "--budget", "12",
                         "--out", str(out), "--cache-dir", str(tmp_path / "c")]) == 0
        selected = ingest_claims(out)
        assert len(selected) == 12
        supported = sum(1 for r in selected if r.label is Label.SUPPORTED)
        assert abs(supported - (len(selected) - supported)) <= 1

    def test_select_malformed_embedding_reply(self, tmp_path, loopback, capsys):
        claims = tmp_path / "claims.jsonl"
        write_claims([ClaimRecord(id=f"c{i}", claim=f"claim {i}", evidence=["e"], source="s",
                                  label=label) for i, label in enumerate(Label)], claims)
        loopback.reply = (200, b"[]")
        assert dispatch(["select", "--claims", str(claims), "--budget", "2",
                         "--out", str(tmp_path / "sel.jsonl"), "--embedding", loopback.url,
                         "--cache-dir", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: backend:")


class TestScoring:
    def _write_score_inputs(self, tmp_path, corpus_files, group=False):
        claims_path, _ = corpus_files
        records = [r.with_silver_count(2) for r in ingest_claims(claims_path)[:3]]
        claims = tmp_path / "scored-claims.jsonl"
        write_claims(records, claims)
        traces = tmp_path / "traces.jsonl"
        with open(traces, "w") as fh:
            for r in records:
                if group:
                    for g in range(4):
                        verdict = r.label.value if g < 3 else (
                            "Refuted" if r.label is Label.SUPPORTED else "Supported")
                        fh.write(json.dumps(
                            {"id": r.id, "trace": VALID_TRACE.format(verdict=verdict)}) + "\n")
                else:
                    fh.write(json.dumps(
                        {"id": r.id, "trace": VALID_TRACE.format(verdict=r.label.value)}) + "\n")
        return claims, traces

    def test_score_labeled(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        out = tmp_path / "rewards.jsonl"
        assert dispatch(["score", "--traces", str(traces), "--claims", str(claims),
                         "--mode", "labeled", "--out", str(out),
                         "--cache-dir", str(tmp_path / "c")]) == 0
        rows = [json.loads(l) for l in open(out)]
        assert len(rows) == 3
        for row in rows:
            assert row["ver"] == 1.0  # traces echo the gold verdict
            parts = (row["fmt"] + row["ver"] + row["qc"] + row["div"]
                     + row["cov"] + row["nec"] + row["joint"])
            assert row["total"] == parts

    def test_score_group_advantages(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files, group=True)
        out = tmp_path / "group.jsonl"
        assert dispatch(["score-group", "--traces", str(traces), "--claims", str(claims),
                         "--out", str(out), "--cache-dir", str(tmp_path / "c")]) == 0
        rows = [json.loads(l) for l in open(out)]
        assert len(rows) == 12
        by_id = {}
        for row in rows:
            by_id.setdefault(row["id"], []).append(row)
        for group in by_id.values():
            assert len(group) == 4
            assert abs(sum(r["advantage"] for r in group)) < 1e-9
            assert all("pseudo_label" in r for r in group)  # 3-1 majority

    def test_score_group_single_flight(self, tmp_path, corpus_files, judge_server):
        # Rollouts of one claim share questions, so many requests repeat a prompt.
        claims, traces = self._write_score_inputs(tmp_path, corpus_files, group=True)
        outs = []
        for judge in ("mock", judge_server.url):
            outs.append(tmp_path / f"group-{len(outs)}.jsonl")
            assert dispatch(["score-group", "--traces", str(traces), "--claims", str(claims),
                             "--out", str(outs[-1]), "--judge", judge, "--workers", "2",
                             "--cache-dir", str(tmp_path / "c")]) == 0
        prompts = judge_server.prompts
        assert prompts and len(prompts) == len(set(prompts))
        # the server replies as the mock judge does, so the concurrent HTTP
        # fetch must score exactly as the in-memory one
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_score_judge_failure_is_one_backend_error(self, tmp_path, corpus_files,
                                                       judge_server, capsys):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        judge_server.respond = lambda prompt: ((404, "") if "Verdict Criteria" in prompt
                                               else (200, "<answer>1</answer>"))
        out = tmp_path / "rewards.jsonl"
        assert dispatch(["score", "--traces", str(traces), "--claims", str(claims),
                         "--out", str(out), "--judge", judge_server.url,
                         "--cache-dir", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: backend:")
        assert not out.exists()

    def test_score_rerun_replaces_truncated_cache_files(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        cache = tmp_path / "c"
        argv = ["score", "--traces", str(traces), "--claims", str(claims),
                "--cache-dir", str(cache), "--out"]
        assert dispatch(argv + [str(tmp_path / "first.jsonl")]) == 0
        files = sorted(cache.rglob("*.json"))
        for path in files[::2]:  # judge replies and embeddings alike
            path.write_bytes(path.read_bytes()[:20])
        assert dispatch(argv + [str(tmp_path / "second.jsonl")]) == 0
        assert (tmp_path / "first.jsonl").read_bytes() == (tmp_path / "second.jsonl").read_bytes()
        assert sorted(cache.rglob("*.json")) == files
        for path in files:
            json.loads(path.read_text(encoding="utf-8"))

    def test_score_unknown_id_is_usage_error(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "ghost", "trace": "x"}) + "\n")
        assert dispatch(["score", "--traces", str(bad), "--claims", str(claims),
                         "--out", str(tmp_path / "o.jsonl")]) == 2


class TestFunnelHttpBackends:
    """`funnel run` with its judge, embedder and verifier on a loopback server
    that relays the mock backends."""

    def _run(self, tmp_path, corpus_files, backends, cache, tag):
        claims, hold = corpus_files
        cfg = tmp_path / f"cfg-{tag}.json"
        cfg.write_text(json.dumps({"inputs": [str(claims)], "holdouts": [str(hold)],
                                   "budget": 10, "seed": 3, "backends": backends}))
        out, report = tmp_path / f"out-{tag}.jsonl", tmp_path / f"report-{tag}.json"
        code = dispatch(["funnel", "run", "--config", str(cfg), "--out", str(out),
                         "--report", str(report), "--cache-dir", str(tmp_path / cache)])
        return code, (out.read_bytes(), report.read_bytes()) if code == 0 else None

    @staticmethod
    def _http(server):
        return {"judge": server.url + "judge", "embedding": server.url + "embed",
                "verifier": server.url + "verify"}

    def test_same_bytes_as_mock_and_each_item_fetched_once(self, tmp_path, corpus_files,
                                                           relay_server):
        _, mock_bytes = self._run(tmp_path, corpus_files, {}, "mock-cache", "mock")
        code, http_bytes = self._run(tmp_path, corpus_files, self._http(relay_server),
                                     "http-cache", "cold")
        assert code == 0 and http_bytes == mock_bytes
        seen = relay_server.seen

        kept, _ = rule_filter(ingest_claims(corpus_files[0]), RuleThresholds(),
                              HeuristicEntityCounter())
        assert sorted(seen["verify"]) == sorted({(r.claim, tuple(r.evidence)) for r in kept})
        stages = json.loads((tmp_path / "report-cold.json").read_text())["stages"]
        silver_in = next(s["input_count"] for s in stages if s["name"] == "silver_decompose")
        assert len(seen["judge"]) == len(set(seen["judge"])) == silver_in
        texts = [text for batch in seen["embed"] for text in batch]
        assert len(texts) == len(set(texts))
        assert max(map(len, seen["embed"])) == EMBED_CHUNK  # chunked, never larger

        for requests in seen.values():
            requests.clear()
        code, warm_bytes = self._run(tmp_path, corpus_files, self._http(relay_server),
                                     "http-cache", "warm")
        assert code == 0 and warm_bytes == mock_bytes
        assert seen == {"judge": [], "embed": [], "verify": []}

    def test_verifier_fault_is_one_stage_error(self, tmp_path, corpus_files, relay_server,
                                               capsys):
        relay_server.status["verify"] = 404
        code, _ = self._run(tmp_path, corpus_files, self._http(relay_server), "c", "fault")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stage difficulty_filter:")
        assert not (tmp_path / "out-fault.jsonl").exists()


class TestEval:
    def test_perfect_predictions(self, tmp_path, corpus_files, capsys):
        claims, _ = corpus_files
        records = ingest_claims(claims)[:10]
        preds = tmp_path / "preds.jsonl"
        with open(preds, "w") as fh:
            for r in records:
                fh.write(json.dumps({"id": r.id, "pred": r.label.value}) + "\n")
        assert dispatch(["eval", "--preds", str(preds), "--gold", str(claims)]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_missing_pred_file(self, tmp_path, corpus_files):
        claims, _ = corpus_files
        assert dispatch(["eval", "--preds", str(tmp_path / "nope.jsonl"),
                         "--gold", str(claims)]) == 1


def test_cli_import_leaves_requests_unloaded():
    # `requests` is imported on the first HTTP call; loading it with the CLI
    # would add its import time to every command.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, claimkit.cli; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def _malformed_argv(case, tmp_path, claims):
    """argv for one command run on one malformed outside input."""
    rows = [json.loads(line) for line in claims.read_text().splitlines()[:20]]
    first = rows[0]["id"]

    def bad_claims(**fields):
        rows[3].update(fields)
        return _write_lines(tmp_path / "bad-claims.jsonl", map(json.dumps, rows))

    def funnel(config):
        return ["funnel", "run", "--config", _write_lines(tmp_path / "cfg.json", [json.dumps(config)]),
                "--out", str(tmp_path / "out.jsonl"), "--report", str(tmp_path / "r.json")]

    def score(*trace_rows):
        return ["score", "--claims", str(claims), "--out", str(tmp_path / "out.jsonl"),
                "--traces", _write_lines(tmp_path / "traces.jsonl", trace_rows)]

    def select(**fields):
        return ["select", "--claims", bad_claims(**fields), "--budget", "4",
                "--out", str(tmp_path / "out.jsonl"), "--cache-dir", str(tmp_path / "c")]

    config = {"inputs": [str(claims)], "budget": 10}
    return {
        "trace row not an object": lambda: score("5"),
        "trace not a string": lambda: score(json.dumps({"id": first, "trace": 5})),
        "trace id not a string": lambda: score(json.dumps({"id": [first], "trace": "x"})),
        "pred not a string": lambda: [
            "eval", "--gold", str(claims),
            "--preds", _write_lines(tmp_path / "p.jsonl", [json.dumps({"id": first, "pred": 1})])],
        "unknown threshold": lambda: funnel(dict(config, thresholds={"min_passage": 3})),
        "thresholds not an object": lambda: funnel(dict(config, thresholds=[3])),
        "config not an object": lambda: funnel([config]),
        "config without budget": lambda: funnel({"inputs": [str(claims)]}),
        "inputs not an array": lambda: funnel(dict(config, inputs=5)),
        "backend spec not a string": lambda: funnel(dict(config, backends={"judge": 5})),
        "claim not a string (select)": lambda: select(claim=5),
        "claim not a string (dedup)": lambda: [
            "dedup", "--claims", bad_claims(claim=5), "--out", str(tmp_path / "out.jsonl"),
            "--cache-dir", str(tmp_path / "c")],
        "source not a string": lambda: select(source=5),
        "meta not an object": lambda: select(meta=[1, 2]),
    }[case]()


class TestMalformedInput:
    """Malformed outside input ends in one error line and a defined exit code:
    2 for claims, trace and prediction files, 1 for a funnel config."""

    @pytest.mark.parametrize("case, code", [
        ("trace row not an object", 2),
        ("trace not a string", 2),
        ("trace id not a string", 2),
        ("pred not a string", 2),
        ("unknown threshold", 1),
        ("thresholds not an object", 1),
        ("config not an object", 1),
        ("config without budget", 1),
        ("inputs not an array", 1),
        ("backend spec not a string", 1),
        ("claim not a string (select)", 2),
        ("claim not a string (dedup)", 2),
        ("source not a string", 2),
        ("meta not an object", 2),
    ])
    def test_one_error_line(self, tmp_path, corpus_files, capsys, case, code):
        assert dispatch(_malformed_argv(case, tmp_path, corpus_files[0])) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["dedup", "--bogus-flag", "x"])
        assert err.value.code == 2
