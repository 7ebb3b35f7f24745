"""CLI dispatch: subcommands, exit codes, dry runs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from claimkit.cli import dispatch
from claimkit.corpus import ClaimRecord, Label, ingest_claims, write_claims
from claimkit.funnel import FunnelReport
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

        def fake_run(config, workers):
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

    def test_score_unknown_id_is_usage_error(self, tmp_path, corpus_files):
        claims, traces = self._write_score_inputs(tmp_path, corpus_files)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "ghost", "trace": "x"}) + "\n")
        assert dispatch(["score", "--traces", str(bad), "--claims", str(claims),
                         "--out", str(tmp_path / "o.jsonl")]) == 2


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


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["dedup", "--bogus-flag", "x"])
        assert err.value.code == 2
