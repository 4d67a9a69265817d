"""Tests for the command-line interface."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

#: The source root, so subprocess runs import the same ``repro``.
_SRC = str(Path(repro.__file__).resolve().parents[1])


class TestCli:
    def test_chips(self, capsys):
        assert main(["chips"]) == 0
        out = capsys.readouterr().out
        assert "TPUv4i" in out and "TPUv1" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "bert0" in out and "SLO" in out

    def test_evaluate(self, capsys):
        assert main(["evaluate", "--app", "cnn0", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "TCO" in out

    def test_evaluate_unknown_app_fails_cleanly(self, capsys):
        assert main(["evaluate", "--app", "gpt5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_evaluate_unknown_chip_fails_cleanly(self, capsys):
        assert main(["evaluate", "--app", "cnn0", "--chip", "TPUv9"]) == 2
        assert "error" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "--app", "cnn0", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "TPUv2" in out and "TPUv4i" in out

    def test_migrate(self, capsys):
        assert main(["migrate", "--app", "cnn0", "--source", "TPUv3",
                     "--target", "TPUv4i"]) == 0
        out = capsys.readouterr().out
        assert "binary portable: False" in out
        assert "recompiled:      True" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestDump:
    def test_dump_hlo(self, capsys):
        assert main(["dump", "--app", "cnn0", "--batch", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("hlo_module cnn0")
        assert "conv2d" in out

    def test_dump_asm(self, capsys):
        assert main(["dump", "--app", "cnn0", "--batch", "1",
                     "--format", "asm"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(".program cnn0 gen 4")
        assert "mxm" in out

    def test_dump_hlo_roundtrips(self, capsys):
        from repro.graph import module_from_text

        main(["dump", "--app", "rnn0", "--batch", "1"])
        text = capsys.readouterr().out
        module = module_from_text(text)
        assert module.name == "rnn0"

    def test_dump_asm_reassembles(self, capsys):
        from repro.isa import assemble

        main(["dump", "--app", "cnn0", "--batch", "1", "--format", "asm"])
        text = capsys.readouterr().out
        program = assemble(text)
        assert program.generation == 4
        assert program.total_macs() > 0


class TestProfile:
    def test_profile_command(self, capsys):
        assert main(["profile", "--app", "cnn0", "--batch", "2",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "split:" in out
        assert "simulated latency" in out


class TestTraceCommand:
    def test_trace_writes_deterministic_json(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["trace", "mlp0", "TPUv4i", "--batch", "2",
                     "--out", str(first)]) == 0
        assert main(["trace", "mlp0", "TPUv4i", "--batch", "2",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["otherData"]["truncated"] is False
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])
        out = capsys.readouterr().out
        assert "mxu busy" in out

    def test_trace_accepts_aliases(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert main(["trace", "resnet50", "tpuv4i", "--batch", "1",
                     "--no-serve", "--out", str(out_path)]) == 0
        assert "cnn0 on TPUv4i" in capsys.readouterr().out

    def test_trace_unknown_app_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "gpt5", "TPUv4i",
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown app" in err and "resnet50" in err


class TestMetricsCommand:
    def test_metrics_reports_tiers_and_counters(self, capsys):
        assert main(["metrics", "--app", "mlp0", "--batch", "2",
                     "--duration", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "wall-time tiers" in out
        assert "serving.requests_served" in out
        assert "tier.compile_s" in out

    def test_metrics_leaves_registry_disabled(self):
        from repro.obs import metrics as global_metrics

        main(["metrics", "--app", "mlp0", "--batch", "2",
              "--duration", "0.02"])
        assert not global_metrics().enabled


class TestFaultsCommand:
    def test_faults_reports_lost_capacity_column(self, capsys):
        assert main(["faults", "--seed", "1", "--duration", "0.2",
                     "--apps", "cnn0"]) == 0
        out = capsys.readouterr().out
        assert "capacity down %" in out
        assert "p99 faulted" in out
        assert "TPUv4i" in out

    def test_faults_rejects_bad_duration(self, capsys):
        assert main(["faults", "--duration", "-1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_runs_and_reports_columns(self, capsys):
        assert main(["cluster", "--seed", "3", "--duration", "0.1",
                     "--apps", "cnn0"]) == 0
        out = capsys.readouterr().out
        for column in ("scenario", "policy", "avail %", "shed %",
                       "p99 ms", "hedged", "ejected", "failover",
                       "degraded s"):
            assert column in out
        for scenario in ("faultless", "kill-1", "chip-outages",
                         "slowdowns", "overload"):
            assert scenario in out
        assert "resilient" in out and "static" in out

    def test_cluster_output_byte_identical_across_runs(self, capsys):
        args = ["cluster", "--seed", "3", "--duration", "0.1",
                "--apps", "cnn0"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cluster_rejects_bad_replicas(self, capsys):
        assert main(["cluster", "--replicas", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPodCommand:
    def test_pod_runs_and_reports_columns(self, capsys):
        assert main(["pod", "--seed", "3", "--duration", "0.1",
                     "--apps", "cnn0"]) == 0
        out = capsys.readouterr().out
        for column in ("topology", "scenario", "policy", "avail %",
                       "p99 ms", "ejected", "failover"):
            assert column in out
        for scenario in ("faultless", "kill-1-link", "kill-1-chip",
                         "ocs-reconfig-race", "link-slowdown"):
            assert scenario in out
        assert "torus" in out and "ocs" in out

    def test_pod_output_byte_identical_across_runs(self, capsys):
        args = ["pod", "--seed", "3", "--duration", "0.1",
                "--apps", "cnn0"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_pod_rejects_bad_arguments(self, capsys):
        assert main(["pod", "--slices", "1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["pod", "--slice-chips", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestLlmCommand:
    """``repro llm`` output pinned across commits, not just across runs.

    The sha256 digests were computed from the stdout of the step-at-a-time
    continuous-batching loop (now ``tests/oracle/continuous.py``), before
    decode runs replaced it; the shipped loop must print the same bytes.
    """

    @pytest.mark.parametrize("args, digest", [
        (["llm"],
         "2fab2e4e67e8132d3b827033077eb8ff88b7e48b566c8061c5e544167207dde8"),
        (["llm", "--faults"],
         "b50fe231369fc7f2bcb70614d925f38f7a7fc9a3683fdb82058e6a9c071cc44d"),
    ])
    def test_output_digest_unchanged(self, capsys, args, digest):
        assert main([*args, "--seed", "3", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _limit_memory():
    """Cap the child's address space at 2 GiB (runs before exec)."""
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


#: Subcommands that generate traffic from --duration and --utilization.
_TRAFFIC_COMMANDS = ["cluster", "faults", "pod", "llm", "metrics"]


def _run_repro(*args):
    """``python -m repro ARGS`` in a child capped at 2 GiB and 10 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=10, env=env,
        preexec_fn=_limit_memory)


class TestHostileInputs:
    """Inputs that once hung or misreported: exit 2, naming the value."""

    @pytest.mark.parametrize("command", ["cluster", "faults", "pod", "llm"])
    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_endless_duration_exits_2(self, command, duration):
        proc = _run_repro(command, "--duration", duration)
        assert proc.returncode == 2, proc.stderr
        assert f"got {duration}" in proc.stderr

    @pytest.mark.parametrize("command", _TRAFFIC_COMMANDS)
    @pytest.mark.parametrize("utilization", ["nan", "inf"])
    def test_endless_utilization_exits_2(self, command, utilization):
        # metrics at --utilization inf once grew memory until killed.
        proc = _run_repro(command, "--utilization", utilization,
                          "--duration", "0.1")
        assert proc.returncode == 2, proc.stderr
        assert f"got {utilization}" in proc.stderr

    @pytest.mark.parametrize("command", _TRAFFIC_COMMANDS)
    @pytest.mark.parametrize("utilization", ["0", "-0.5"])
    def test_nonpositive_utilization_names_the_callers_value(
            self, capsys, command, utilization):
        assert main([command, "--utilization", utilization,
                     "--duration", "0.1"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.endswith(f"got {float(utilization)}")

    @pytest.mark.parametrize("args, seed", [
        (["cluster"], "-5"),
        (["pod"], "-1"),
        (["llm"], "-1"),
        (["llm", "--faults"], "-1"),
    ])
    def test_negative_seed_names_the_callers_value(self, capsys, args, seed):
        assert main([*args, "--seed", seed, "--duration", "0.1"]) == 2
        assert capsys.readouterr().err.strip().endswith(f"got {seed}")
