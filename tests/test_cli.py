"""Command-line behavior: exit codes, determinism, report structure."""

import hashlib
import json
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogames import (
    CapacityExceeded,
    GameError,
    PlayerPartition,
    RiskMeasure,
    Sense,
    StrategyProfile,
    check_playability,
    joint_strategies,
    leader_risk_mode,
    load_game,
    nash_equilibria,
    nash_stackelberg,
    stackelberg_strategies,
)
from infogames import cli
from infogames.cli import _dumps, main
from infogames.gamefile import export_custom, load_game
from infogames.model import DEFAULT_CAP
from infogames.normal_form import fmt_value, strategy_labeller
from infogames.preferences import Objective, PlayerData, make_wgame
import oracle
from conftest import assert_same_text
from test_context_tables import MODES, random_game, signed_zero_game
from test_model import random_nonsequential_model

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"
# An integer literal too large for a float.
BIG = 10**400


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "infogames.cli", *args],
        capture_output=True,
        text=True,
    )


def write_mutual_observation(tmp_path: Path) -> str:
    doc = {
        "version": 1,
        "custom": {
            "factors": [
                {"id": "w", "kind": "nature-exogenous", "elements": ["only"]},
                {"id": "ua", "kind": "action", "elements": ["0", "1"]},
                {"id": "ub", "kind": "action", "elements": ["0", "1"]},
            ],
            "agents": [
                {"player": "a", "action": "ua", "info": {"cylinder": ["ub"]}},
                {"player": "b", "action": "ub", "info": {"cylinder": ["ua"]}},
            ],
            "players": [
                {
                    "id": "a",
                    "objective": {"sense": "cost", "values": [0, 0, 0, 0]},
                    "belief": {"product": [[1.0]]},
                },
                {
                    "id": "b",
                    "objective": {"sense": "cost", "values": [0, 0, 0, 0]},
                    "belief": {"product": [[1.0]]},
                },
            ],
        },
    }
    path = tmp_path / "mutual.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_nash_on_prisoners_dilemma(self):
        res = run_cli("nash", "--game", str(GAMES_DIR / "prisoners_dilemma.json"))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["results"]["count"] == 1
        eq = report["results"]["equilibria"][0]
        assert eq["profile"] == {"row": "row:D", "col": "col:D"}
        assert eq["values"] == {"row": "5", "col": "5"}

    def test_missing_file_is_validation_failure(self):
        res = run_cli("validate", "--game", "/nonexistent.json")
        assert res.returncode == 2
        assert "no such file" in res.stderr

    def test_self_information_violation_exit_2(self, tmp_path):
        doc = {
            "version": 1,
            "custom": {
                "factors": [
                    {"id": "w", "kind": "nature-exogenous", "elements": ["only"]},
                    {"id": "u", "kind": "action", "elements": ["a", "b"]},
                ],
                "agents": [
                    {"player": "p", "action": "u", "info": {"cylinder": ["u"]}}
                ],
                "players": [
                    {
                        "id": "p",
                        "objective": {"sense": "cost", "values": [0, 1]},
                        "belief": {"product": [[1.0]]},
                    }
                ],
            },
        }
        path = tmp_path / "selfinfo.json"
        path.write_text(json.dumps(doc))
        res = run_cli("validate", "--game", str(path))
        assert res.returncode == 2
        assert "observes his own action" in res.stderr

    @pytest.mark.parametrize("command", ["validate", "playability --mode all"])
    def test_agents_printing_alike_exit_2(self, tmp_path, capsys, command):
        """Player "p.1" and stage 1 of player "p" would share one key of
        every failure's profile, so the game is rejected."""
        doc = json.loads(Path(write_mutual_observation(tmp_path)).read_text())
        custom = doc["custom"]
        custom["agents"][0]["player"] = custom["players"][0]["id"] = "p.1"
        custom["agents"][1].update(player="p", stage=1)
        custom["players"][1]["id"] = "p"
        path = tmp_path / "alike.json"
        path.write_text(json.dumps(doc))
        assert main([*command.split(), "--game", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: agents AgentId(player='p.1', stage=None) and "
            "AgentId(player='p', stage=1) both print as 'p.1'\n"
        )

    @pytest.mark.parametrize(
        "name, keys, value, field",
        [
            ("tou_pricing.json", ("builtin", "params", "peak_prices", 1), BIG, "$.builtin.params.peak_prices[1]"),
            ("thai_dr_single.json", ("builtin", "params", "reward"), BIG, "$.builtin.params.reward"),
            (
                "thai_dr_single.json",
                ("builtin", "params", "leader_coeffs", "values", 0, 1),
                BIG,
                "$.builtin.params.leader_coeffs.values[0][1]",
            ),
            ("thai_two_consumers.json", ("builtin", "params", "horizon"), BIG, "$.builtin.params.horizon"),
            (
                "nature_orders.json",
                ("custom", "players", 0, "objective", "values", 2),
                BIG,
                "$.custom.players[0].objective.values[2]",
            ),
            (
                "nature_orders.json",
                ("custom", "players", 0, "belief", "product", 0, 0),
                BIG,
                "$.custom.players[0].belief.product[0][0]",
            ),
            (
                "nature_orders.json",
                ("custom", "players", 0, "risk"),
                {"kind": "cvar", "alpha": BIG},
                "$.custom.players[0].risk.alpha",
            ),
        ],
    )
    def test_numbers_too_large_for_a_float_exit_2(self, tmp_path, capsys, name, keys, value, field):
        """A 400-digit integer where the game reads a float, or a horizon,
        is a one-line schema error at its field, not an OverflowError."""
        doc = json.loads((GAMES_DIR / name).read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--game", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1

    def test_non_playable_exit_2_with_witness(self, tmp_path):
        path = write_mutual_observation(tmp_path)
        res = run_cli("playability", "--game", path, "--mode", "all")
        assert res.returncode == 2
        report = json.loads(res.stdout)
        assert report["results"]["playable"] is False
        counts = {f["solutions"] for f in report["results"]["failures"]}
        assert counts == {0, 2}
        two = next(f for f in report["results"]["failures"] if f["solutions"] == 2)
        assert len(two["witnesses"]) == 2

    def test_capacity_exceeded_exit_3(self):
        res = run_cli(
            "nash", "--game", str(GAMES_DIR / "thai_dr_single.json"), "--cap", "10"
        )
        assert res.returncode == 3
        assert "cap" in res.stderr

    def test_astronomical_count_exit_3(self, tmp_path):
        params = {
            "baselines": [10],
            "prices": [1],
            "reward": 0.5,
            "targets": [0, 2, 4],
            "consumptions": [6, 8, 10],
            "horizon": 3,
            "followers": ["a", "b"],
            "leader_coeffs": {"values": [[1, 0.01]]},
            "follower_coeffs": {"values": [[1, 0.01], [1.2, 0.02]]},
            "exogenous": [{"values": [1.0]}],
            "info_mode": "full-history",
        }
        doc = {"version": 1, "builtin": {"model": "thai_slmf_mt", "params": params}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        res = run_cli("strategies", "--game", str(path))
        assert res.returncode == 3, res.stderr
        assert re.search(r"needs ~10\^\d+ items, cap is 1000000", res.stderr)

    def test_cap_flag_raises_the_thai_build_cap(self, tmp_path):
        params = {
            "baselines": [20],
            "prices": [1],
            "reward": 0.5,
            "targets": list(range(5)),
            "consumptions": list(range(5, 21)),
            "leader_coeffs": {"values": [[0.3, 0]]},
            "follower_coeffs": {"values": [[2, 0.1]]},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"version": 1, "builtin": {"model": "thai_slsf_st", "params": params}}))
        res = run_cli("strategies", "--game", str(path), "--cap", "10000000")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["counts"]["profiles"] == 5242880

    def test_cap_flag_lowers_the_thai_build_cap(self):
        res = run_cli("strategies", "--game", str(GAMES_DIR / "thai_dr_single.json"), "--cap", "10")
        assert res.returncode == 3
        assert res.stderr.endswith("cap is 10\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_astronomical_counts_render_in_reports(self, tmp_path, fmt):
        # One binary agent seeing a 15000-state Nature: 2**15000 strategies.
        n = 15000
        doc = {
            "version": 1,
            "custom": {
                "factors": [
                    {"id": "w", "kind": "nature-exogenous", "elements": [str(i) for i in range(n)]},
                    {"id": "u", "kind": "action", "elements": ["0", "1"]},
                ],
                "agents": [{"player": "p", "action": "u", "info": {"cylinder": ["w"]}}],
                "players": [
                    {"id": "p", "objective": {"sense": "cost", "values": [0] * (2 * n)},
                     "risk": {"kind": "worst-case"}}
                ],
            },
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "strategies"):
            res = run_cli(command, "--game", str(path), "--format", fmt)
            assert res.returncode == 0, res.stderr
            assert "~10^4515" in res.stdout
        if fmt == "json":
            counts = json.loads(res.stdout)["counts"]
            assert counts["profiles"] == counts["players"][0]["strategies"] == "~10^4515"
        res = run_cli("nash", "--game", str(path), "--format", fmt)
        assert res.returncode == 3
        assert "needs ~10^4515 items" in res.stderr

    @pytest.mark.parametrize(
        "mode,message",
        [
            ("sample=3,7", "use all or sample=N,seed=S"),
            ("sample=-5,seed=1", "sample size must be at least 1, got -5"),
            ("sample=0", "sample size must be at least 1, got 0"),
            # random.Random(-3) would draw the profiles of seed 3.
            ("sample=4,seed=-3", "'sample=4,seed=-3': seed must be at least 0; use all or"),
            ("sample=3,sede=9", "unknown key 'sede'"),
            ("sample=5,n=7", "repeated key 'n'"),
            ("sample=5,seed=1,seed=2", "repeated key 'seed'"),
        ],
    )
    def test_bad_sample_mode_exit_2(self, tmp_path, mode, message):
        path = write_mutual_observation(tmp_path)
        res = run_cli("playability", "--game", path, "--mode", mode)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and message in res.stderr

    @pytest.mark.parametrize(
        "game,belief,what",
        [
            (
                "nature_orders.json",
                {"product": [[float("nan"), 0.3]]},
                "$.custom.players[0].belief: belief vector for factor 'first'",
            ),
            (
                "nature_orders.json",
                {"joint": [0.5, float("nan")]},
                "$.custom.players[0].belief: joint belief",
            ),
            (
                "tou_pricing.json",
                {"values": [100, 120], "masses": [float("nan"), 0.5]},
                "$.builtin.params: belief vector for factor 'demand'",
            ),
        ],
    )
    def test_nan_belief_mass_exit_2(self, tmp_path, capsys, game, belief, what):
        """A NaN mass fails both the sign and the sum check, so it is
        rejected as not finite."""
        doc = json.loads((GAMES_DIR / game).read_text(encoding="utf-8"))
        if "builtin" in doc:
            doc["builtin"]["params"]["demand"] = belief
        else:
            doc["custom"]["players"][0]["belief"] = belief
        path = tmp_path / game
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        assert main(["nash", "--game", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} has a non-finite mass nan\n"

    @pytest.mark.parametrize("command", ["validate", "strategies"])
    @pytest.mark.parametrize("cap", ["-5", "-1", "five"])
    def test_bad_cap_is_a_usage_error(self, command, cap):
        res = run_cli(command, "--game", str(GAMES_DIR / "prisoners_dilemma.json"), "--cap", cap)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("usage: infogames")
        assert f"error: argument --cap: cap must be a non-negative integer, got {cap!r}" in res.stderr

    @pytest.mark.parametrize("command", ["validate", "strategies"])
    def test_zero_cap_is_accepted(self, command):
        res = run_cli(command, "--game", str(GAMES_DIR / "prisoners_dilemma.json"), "--cap", "0")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["diagnostics"]["cap"] == 0

    @pytest.mark.parametrize(
        "args,target",
        [
            (("validate", "--out"), "x.json"),
            (("normal-form", "--csv"), "x.csv"),
        ],
    )
    def test_unwritable_output_exit_4(self, tmp_path, args, target):
        missing = tmp_path / "missing" / target
        res = run_cli(*args, str(missing), "--game", str(GAMES_DIR / "prisoners_dilemma.json"))
        assert res.returncode == 4
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert str(missing) in res.stderr
        assert not missing.parent.exists()

    @pytest.mark.parametrize("n", [10, 11])
    def test_sample_size_above_cap_exit_3(self, tmp_path, n):
        path = write_mutual_observation(tmp_path)
        res = run_cli("playability", "--game", path, "--cap", "10", "--mode", f"sample={n}")
        if n > 10:
            assert res.returncode == 3 and res.stdout == ""
            assert res.stderr == "error: sampled profiles needs 11 items, cap is 10\n"
        else:
            assert res.returncode in (0, 2), res.stderr
            assert json.loads(res.stdout)["results"]["profiles_checked"] == 10

    def test_playability_sample_mode(self, tmp_path):
        path = write_mutual_observation(tmp_path)
        res = run_cli("playability", "--game", path, "--mode", "sample=3,seed=7")
        assert res.returncode == 2
        report = json.loads(res.stdout)
        assert report["results"]["profiles_checked"] == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("nash", "--game", str(GAMES_DIR / "prisoners_dilemma.json")),
            ("nash-stackelberg", "--game", str(GAMES_DIR / "tou_pricing.json")),
            ("normal-form", "--game", str(GAMES_DIR / "thai_dr_single.json")),
            ("strategies", "--game", str(GAMES_DIR / "tou_pricing.json"), "--format", "text"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_theta_one_equals_optimistic_report(self):
        base = ("--game", str(GAMES_DIR / "tou_pricing.json"))
        a = run_cli("stackelberg", *base, "--mode", "theta=1")
        b = run_cli("stackelberg", *base, "--mode", "optimistic")
        assert a.stdout == b.stdout
        a0 = run_cli("stackelberg", *base, "--mode", "theta=0")
        p = run_cli("stackelberg", *base, "--mode", "pessimistic")
        assert a0.stdout == p.stdout

    def test_text_and_json_agree_on_values(self):
        base = ("nash", "--game", str(GAMES_DIR / "prisoners_dilemma.json"))
        js = json.loads(run_cli(*base).stdout)
        txt = run_cli(*base, "--format", "text").stdout
        for player, value in js["results"]["equilibria"][0]["values"].items():
            assert f"{player}={value}" in txt


class TestCommands:
    def test_validate_reports_sequential_order(self):
        res = run_cli("validate", "--game", str(GAMES_DIR / "tou_pricing.json"))
        report = json.loads(res.stdout)
        assert report["validation"]["sequential_order"] == ["leader", "follower"]
        assert report["validation"]["playability"]["mode"] == "sequential"

    def test_strategies_counts(self):
        res = run_cli("strategies", "--game", str(GAMES_DIR / "tou_pricing.json"))
        report = json.loads(res.stdout)
        by_agent = {a["agent"]: a["strategies"] for a in report["results"]["agents"]}
        assert by_agent == {"leader": 2, "follower": 9}
        assert report["results"]["profiles"] == 18

    def test_cyclic_game_enumerates_every_profile(self):
        path = str(GAMES_DIR / "cyclic_three_agents.json")
        strategies = json.loads(run_cli("strategies", "--game", path).stdout)["results"]
        res = run_cli("playability", "--mode", "all", "--game", path)
        assert res.returncode == 2
        results = json.loads(res.stdout)["results"]
        assert results["mode"] == "all" and results["playable"] is False
        counts = [a["strategies"] for a in strategies["agents"]]
        assert len(counts) == 3 and results["profiles_checked"] == counts[0] * counts[1] * counts[2]
        model = load_game(path).model
        profiles = map(StrategyProfile, joint_strategies(model, model.agents, 10**6, ""))
        scanned = check_playability(model, list(profiles))
        assert len(results["failures"]) == len(scanned.failures) > 0

    def test_normal_form_csv_flag(self, tmp_path):
        csv_path = tmp_path / "matrix.csv"
        res = run_cli(
            "normal-form",
            "--game",
            str(GAMES_DIR / "prisoners_dilemma.json"),
            "--csv",
            str(csv_path),
        )
        assert res.returncode == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == ",col:C,col:D"
        assert lines[2] == "row:D,0;10,5;5"

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli(
            "nash",
            "--game",
            str(GAMES_DIR / "prisoners_dilemma.json"),
            "--out",
            str(out),
        )
        assert res.returncode == 0
        assert res.stdout == ""
        report = json.loads(out.read_text())
        assert report["command"] == "nash"

    def test_nash_stackelberg_tou_values(self):
        res = run_cli(
            "nash-stackelberg",
            "--game",
            str(GAMES_DIR / "tou_pricing.json"),
            "--mode",
            "optimistic",
        )
        report = json.loads(res.stdout)
        assert report["results"]["mode"] == "optimistic"
        for eq in report["results"]["equilibria"]:
            assert eq["values"] == {"leader": "15", "follower": "20"}
            assert eq["profile"]["leader"] == "leader:(0.2,0.1)"

    def test_export_round_trip_via_cli(self, tmp_path):
        # `export` emits the bare game document, directly reloadable.
        res = run_cli("export", "--game", str(GAMES_DIR / "thai_dr_single.json"))
        doc = json.loads(res.stdout)
        assert "custom" in doc
        exported = tmp_path / "exported.json"
        exported.write_text(json.dumps(doc))
        orig = run_cli(
            "normal-form", "--game", str(GAMES_DIR / "thai_dr_single.json")
        ).stdout
        back = run_cli("normal-form", "--game", str(exported)).stdout
        orig_cells = json.loads(orig)["results"]["cells"]
        back_cells = json.loads(back)["results"]["cells"]
        assert orig_cells == back_cells

    def test_bad_mode_string_rejected(self):
        res = run_cli(
            "stackelberg",
            "--game",
            str(GAMES_DIR / "tou_pricing.json"),
            "--mode",
            "sideways",
        )
        assert res.returncode == 2
        assert "mode" in res.stderr


LEADER_RISKS = [
    ("leader-risk=expectation-uniform", "expectation-uniform"),
    ("leader-risk=worst-case", "worst-case"),
    ("leader-risk=cvar:0.5", ("cvar", 0.5)),
]


class TestLeaderRiskModes:
    """``--mode leader-risk=...`` runs the library's leader-risk modes."""

    def cli_report(self, capsys, command, flag):
        code = main([command, "--game", str(GAMES_DIR / "tou_pricing.json"), "--mode", flag])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["options"]["mode"] == report["results"]["mode"] == flag
        return report

    @pytest.mark.parametrize("flag,risk", LEADER_RISKS)
    def test_stackelberg_matches_library(self, capsys, flag, risk):
        report = self.cli_report(capsys, "stackelberg", flag)
        game = load_game(str(GAMES_DIR / "tou_pricing.json"))
        mode = leader_risk_mode(risk)
        assert mode.describe() == flag
        leader_set, diag = stackelberg_strategies(game, mode)
        label = strategy_labeller(game)
        expected = [{p: label(ps) for p, ps in lp} for lp in leader_set]
        assert report["results"]["leader_profiles"] == expected
        assert report["diagnostics"]["profiles_enumerated"] == diag.profiles_enumerated

    @pytest.mark.parametrize("flag,risk", LEADER_RISKS)
    def test_nash_stackelberg_matches_library(self, capsys, flag, risk):
        report = self.cli_report(capsys, "nash-stackelberg", flag)
        game = load_game(str(GAMES_DIR / "tou_pricing.json"))
        eq = nash_stackelberg(game, leader_risk_mode(risk))
        label = strategy_labeller(game)
        expected = [
            {
                "profile": {p: label(ps) for p, ps in rec.by_player},
                "values": {p: fmt_value(v) for p, v in rec.values},
            }
            for rec in eq.profiles
        ]
        assert report["results"]["equilibria"] == expected
        assert report["results"]["count"] == len(expected) > 0

    @pytest.mark.parametrize(
        "flag",
        [
            "leader-risk=expectation",
            "leader-risk=worst-case:1",
            "leader-risk=cvar:0",
            "leader-risk=cvar:half",
            "leader-risk=cvar:1.5",
        ],
    )
    @pytest.mark.parametrize("command", ["stackelberg", "nash-stackelberg"])
    def test_malformed_leader_risk_exit_2(self, capsys, command, flag):
        code = main([command, "--game", str(GAMES_DIR / "tou_pricing.json"), "--mode", flag])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: bad mode {flag!r}; use optimistic, pessimistic, theta=T, or "
            "leader-risk=expectation-uniform|worst-case|cvar:ALPHA\n"
        )

    @pytest.mark.parametrize("flag", ["theta=0.5,x", "theta=", "theta=half", "theta=0.5=0.5"])
    @pytest.mark.parametrize("command", ["stackelberg", "nash-stackelberg"])
    def test_malformed_theta_exit_2(self, capsys, command, flag):
        code = main([command, "--game", str(GAMES_DIR / "tou_pricing.json"), "--mode", flag])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: bad mode {flag!r}; use optimistic, pessimistic, theta=T, or "
            "leader-risk=expectation-uniform|worst-case|cvar:ALPHA\n"
        )

    @pytest.mark.parametrize("flag", ["theta=-0.1", "theta=1.5", "theta=nan", "theta=inf"])
    @pytest.mark.parametrize("command", ["stackelberg", "nash-stackelberg"])
    def test_theta_outside_unit_interval_exit_2(self, capsys, command, flag):
        code = main([command, "--game", str(GAMES_DIR / "tou_pricing.json"), "--mode", flag])
        assert code == 2
        assert capsys.readouterr() == ("", "error: theta must lie in [0, 1]\n")


class TestInProcessRuns:
    """``main`` builds its parser once; later calls in the same process must
    behave like a fresh ``python -m infogames.cli`` process."""

    def test_repeated_main_calls_match_fresh_processes(self, tmp_path, capsys):
        cyclic = str(GAMES_DIR / "cyclic_three_agents.json")
        tou = str(GAMES_DIR / "tou_pricing.json")
        # (arguments, whether the report goes to --out)
        runs = [
            (["playability", "--game", cyclic, "--mode", "sample=3,seed=7"], True),
            (["nash-stackelberg", "--game", tou, "--mode", "theta=0.5"], False),
            (["playability", "--game", cyclic, "--format", "text"], True),
            (["playability", "--game", cyclic, "--mode", "sample=3,seed=1,seed=2"], True),
            (["nash-stackelberg", "--game", tou, "--mode", "theta=0.5"], True),
        ]
        codes = []
        for i, (args, to_file) in enumerate(runs):
            here, fresh = tmp_path / f"in-process-{i}", tmp_path / f"fresh-{i}"
            code = main([*args, "--out", str(here)] if to_file else args)
            out, err = capsys.readouterr()
            res = run_cli(*args, "--out", str(fresh)) if to_file else run_cli(*args)
            assert (code, out, err) == (res.returncode, res.stdout, res.stderr), args
            assert here.exists() == fresh.exists()
            if here.exists():
                assert here.read_bytes() == fresh.read_bytes()
            codes.append(code)
        assert codes == [0, 0, 2, 2, 0]


# --- Report dicts against the record-by-record rule ---------------------------
#
# ``cli.run`` labels each distinct strategy once, renders each distinct value
# once and shares one "values" dict among records whose values render alike.
# The reference below builds each record's dicts on its own, with the label
# rule written out per strategy and ``fmt_value`` per value.


def reference_label(game, ps) -> str:
    parts = []
    for s in ps:
        player = game.players.assignment[s.agent]
        name = player if len(game.agents_of(player)) == 1 else str(s.agent)
        elements = game.model.action_factors[s.agent].elements
        parts.append(f"{name}:" + "|".join(elements[i] for i in s.table))
    return " ".join(parts)


def reference_equilibria(game, report) -> list[dict]:
    return [
        {
            "profile": {p: reference_label(game, ps) for p, ps in rec.by_player},
            "values": {p: fmt_value(v) for p, v in rec.values},
        }
        for rec in report.profiles
    ]


# Player ids and action elements that the JSON writer escapes: quotes,
# backslashes, control, non-ASCII and astral characters, and text that looks
# like JSON.
ESCAPED_NAMES = {
    "L": 'L"\\\x00',
    "F": "F\t\u00e9\U0001f600",
    "ul0": '{"a": [1]}',
    "ul1": "\\u0041\x1f\u2028",
    "uf0": "\u00fc\x7f",
    "uf1": "\U0001f600\"",
}


def renamed(doc: dict, names: dict) -> dict:
    """The custom game document ``doc`` with the player ids and action
    elements in ``names`` renamed."""
    custom = doc["custom"]
    for factor in custom["factors"]:
        factor["elements"] = [names.get(e, e) for e in factor["elements"]]
    for agent in custom["agents"]:
        agent["player"] = names.get(agent["player"], agent["player"])
    for player in custom["players"]:
        player["id"] = names.get(player["id"], player["id"])
    return doc


@pytest.mark.parametrize("names", [{}, ESCAPED_NAMES], ids=["plain", "escaped"])
@pytest.mark.parametrize("leader_values", [None, (1.0, 2.0, 3.0, 3.0)])
def test_signed_zeros_render_as_the_oracle_scores_them(tmp_path, leader_values, names):
    """The follower's tied keys score 0.0 and -0.0 (a worst-case cost), so
    her values alternate "0" and "-0" down the records: a value cache that
    merged the two zeros would print one of them for both.  With the second
    leader table, the leader's value is 3 in every record, so records differ
    only in the sign of the follower's zero, and a "values" dict shared by
    equal floats rather than equal texts would merge them too.  With
    ``ESCAPED_NAMES``, every record's profile and values hold escaped text,
    and the ``--out`` file is still ``json.dumps(indent=2)`` bytes."""
    game = signed_zero_game()
    if leader_values is not None:
        leader = game.data["L"]
        objective = Objective("L", leader.objective.sense, leader_values)
        data = {**game.data, "L": PlayerData(objective, leader.risk)}
        game = make_wgame(game.model, game.players, data, game.leaders)
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(renamed(export_custom(game), names)))
    game = load_game(str(path))
    follower = names.get("F", "F")
    for mode in MODES:
        expected = reference_equilibria(game, oracle.Oracle(game).nash_stackelberg(mode))
        assert [rec["values"][follower] for rec in expected] == ["0", "-0", "0", "-0"]
        args = ["nash-stackelberg", "--mode", mode.describe(), "--game", str(path)]
        out = tmp_path / "report"
        assert main([*args, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        written = json.loads(text)
        assert written["results"]["equilibria"] == expected
        assert text == json.dumps(written, indent=2) + "\n"
        reference = {**written, "results": {**written["results"], "equilibria": expected}}
        assert text == json.dumps(reference, indent=2) + "\n"
        assert main([*args, "--format", "text", "--out", str(out)]) == 0
        # Not splitlines(), which also breaks at the names' \x1f and \u2028.
        listed = [
            line for line in out.read_text(encoding="utf-8").split("\n") if line.startswith("  [")
        ]
        assert listed == [
            "  [{}] values: {}".format(
                "; ".join(f"{p}: {s}" for p, s in rec["profile"].items()),
                ", ".join(f"{p}={v}" for p, v in rec["values"].items()),
            )
            for rec in expected
        ]


def test_same_text_check_is_exact_and_names_the_first_difference():
    """``assert_same_text`` passes equal texts only, and a failure names the
    first differing offset at once, whatever the texts' length."""
    big = "x" * 500_000
    assert_same_text(big, "x" * 500_000)
    for actual, expected, at in ((big + "y", big + "z", 500_000), (big, big + "\n", 500_000), ("a" + big, "b" + big, 0)):
        with pytest.raises(pytest.fail.Exception, match=f"texts differ at offset {at} "):
            assert_same_text(actual, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_report_dicts_match_the_record_by_record_rule(seed):
    """On a random game (``random_game``: one to three players, several
    agents per player, every mode of ``MODES``), the ``nash`` and
    ``nash-stackelberg`` equilibria and the ``stackelberg`` leader profiles
    of ``cli.run`` equal the reference dicts, as objects, as ``json.dumps``
    bytes and as ``_dumps`` bytes.  The ``--out`` file of ``cli.main``, whose
    writer is handed the equilibrium records' texts, is ``json.dumps(indent=2)``
    of ``cli.run``'s report and of the report with the reference dicts."""
    game = random_game(random.Random(seed))
    cases = [("nash", None, lambda mode: nash_equilibria(game))]
    for mode in MODES:
        cases.append(("stackelberg", mode, lambda mode: stackelberg_strategies(game, mode)))
        cases.append(("nash-stackelberg", mode, lambda mode: nash_stackelberg(game, mode)))
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "load_game", lambda path, cap: game)
        out = Path(tmp) / "report.json"
        for command, mode, solve in cases:
            options = {} if mode is None else {"mode": mode.describe()}
            argv = [command, "--game", "game.json", *(["--mode", mode.describe()] if mode else [])]
            out.unlink(missing_ok=True)
            try:
                solved = solve(mode)
            except (GameError, ValueError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    cli.run(command, "game.json", options, DEFAULT_CAP, mode)
                code = cli.EXIT_CAPACITY if isinstance(exc, CapacityExceeded) else cli.EXIT_VALIDATION
                assert main([*argv, "--out", str(out)]) == code
                assert not out.exists()
                continue
            report, code = cli.run(command, "game.json", options, DEFAULT_CAP, mode)
            results = report["results"]
            key = "leader_profiles" if command == "stackelberg" else "equilibria"
            listed = results[key]
            if command == "stackelberg":
                expected = [{p: reference_label(game, ps) for p, ps in lp} for lp in solved[0]]
            else:
                expected = reference_equilibria(game, solved)
            assert listed == expected
            assert_same_text(json.dumps(listed), json.dumps(expected))
            assert_same_text(_dumps(listed), json.dumps(expected, indent=2))
            assert main([*argv, "--out", str(out)]) == code
            written = out.read_text(encoding="utf-8")
            assert_same_text(written, json.dumps(report, indent=2) + "\n")
            reference = {**report, "results": {**results, key: expected}}
            assert_same_text(written, json.dumps(reference, indent=2) + "\n")


def tied_game(actions: int) -> dict:
    """A leader with two actions and a follower with ``actions`` who sees
    nothing, every outcome costing both nothing: every profile is a Nash
    equilibrium, and every Stackelberg mode ties all of them too."""
    return {
        "version": 1,
        "custom": {
            "factors": [
                {"id": "w", "kind": "nature-exogenous", "elements": ["only"]},
                {"id": "ul", "kind": "action", "elements": ["a", "b"]},
                {"id": "uf", "kind": "action", "elements": [f"f{i}" for i in range(actions)]},
            ],
            "agents": [
                {"player": "l", "action": "ul", "info": {"cylinder": []}},
                {"player": "f", "action": "uf", "info": {"cylinder": []}},
            ],
            "players": [
                {
                    "id": p,
                    "role": role,
                    "objective": {"sense": "cost", "values": [0] * (2 * actions)},
                    "belief": {"product": [[1.0]]},
                }
                for p, role in (("l", "leader"), ("f", "follower"))
            ],
        },
    }


@pytest.mark.parametrize("command", ["nash", "nash-stackelberg"])
def test_tied_records_are_written_without_walking_them(tmp_path, command, monkeypatch):
    """A report's equilibrium records reach the writer as one composed text,
    so the writer's calls of ``_encode`` do not grow with the record count:
    doubling the records (300 to 600) adds fewer calls than a tenth of the
    added records."""
    encoded = 0
    encode = cli._encode

    def counted(*args):
        nonlocal encoded
        encoded += 1
        return encode(*args)

    monkeypatch.setattr(cli, "_encode", counted)
    calls, records = [], []
    for actions in (150, 300):
        path = tmp_path / f"tied{actions}.json"
        path.write_text(json.dumps(tied_game(actions)))
        out = tmp_path / "report.json"
        encoded = 0
        assert main([command, "--game", str(path), "--out", str(out)]) == 0
        calls.append(encoded)
        records.append(len(json.loads(out.read_text())["results"]["equilibria"]))
    assert records == [300, 600]
    assert calls[1] - calls[0] < (records[1] - records[0]) / 10


@pytest.mark.parametrize("command", ["nash", "nash-stackelberg"])
def test_run_alone_composes_the_records(command):
    """``cli.run`` called on its own returns the equilibrium list with its
    text, which equals a list and is written as ``json.dumps`` writes it."""
    report, code = cli.run(command, str(GAMES_DIR / "tou_pricing.json"), {}, DEFAULT_CAP, cli.OPTIMISTIC)
    listed = report["results"]["equilibria"]
    assert code == 0 and len(listed) > 1
    assert listed == json.loads(json.dumps(listed))
    assert listed.depth == 2
    assert_same_text(listed.text, json.dumps(listed, indent=2).replace("\n", "\n    "))
    assert_same_text(_dumps(report), json.dumps(report, indent=2))


def pennies_game() -> dict:
    """Matching pennies: the first player pays when the actions differ, the
    second when they match, so there is no pure Nash equilibrium."""
    return {
        "version": 1,
        "custom": {
            "factors": [
                {"id": "w", "kind": "nature-exogenous", "elements": ["only"]},
                {"id": "ua", "kind": "action", "elements": ["h", "t"]},
                {"id": "ub", "kind": "action", "elements": ["h", "t"]},
            ],
            "agents": [
                {"player": "a", "action": "ua", "info": {"cylinder": []}},
                {"player": "b", "action": "ub", "info": {"cylinder": []}},
            ],
            "players": [
                {"id": p, "objective": {"sense": "cost", "values": values}, "belief": {"product": [[1.0]]}}
                for p, values in (("a", [0, 1, 1, 0]), ("b", [1, 0, 0, 1]))
            ],
        },
    }


def test_empty_lists_carry_the_empty_text(tmp_path):
    """An empty equilibrium or failure list carries ``[]``, the text
    ``json.dumps`` gives it, not an opening and a closing line."""
    path = tmp_path / "pennies.json"
    path.write_text(json.dumps(pennies_game()))
    nash, code = cli.run("nash", str(path), {}, DEFAULT_CAP)
    assert (code, nash["results"]["count"]) == (0, 0)
    playable, code = cli.run("playability", str(GAMES_DIR / "nature_orders.json"), {"mode": "all"}, DEFAULT_CAP, "all")
    assert (code, playable["results"]["playable"]) == (0, True)
    for listed in (nash["results"]["equilibria"], playable["results"]["failures"]):
        assert (listed, listed.depth, listed.text) == ([], 2, "[]")


# --- Playability failures against the failure-by-failure rule ----------------
#
# ``cli.run`` builds each distinct point, strategy, profile and solution set of
# a playability report once, with its text, and composes each failure's text
# from them.  The reference below builds each failure's dict on its own.


def reference_failures(model, report) -> list[dict]:
    labels = model.configuration.point_labels
    return [
        {
            "nature": list(model.nature_space.point_labels(f.nature_point)),
            "profile": {str(s.agent): list(s.table) for s in f.profile.strategies},
            "solutions": f.solution_count,
            "witnesses": [list(labels(x)) for x in f.solutions],
        }
        for f in report.failures
    ]


def escaped(doc: dict) -> dict:
    """The custom game document ``doc`` with every element and player id
    suffixed by characters that the JSON writer escapes."""
    suffix = '"\\\x00\té\U0001f600 {"a": [1]}'
    custom = doc["custom"]
    names = {e: e + suffix for f in custom["factors"] for e in f["elements"]}
    names.update({p["id"]: p["id"] + suffix for p in custom["players"]})
    return renamed(doc, names)


def playability_game(model):
    """``model`` as the game of one player, owning every agent of
    ``random_nonsequential_model`` and paying nothing."""
    size = model.configuration.size
    data = {"p": PlayerData(Objective("p", Sense.COST, (0.0,) * size), RiskMeasure.worst_case())}
    return make_wgame(model, PlayerPartition(("p",), {a: "p" for a in model.agents}), data)


def assert_failures_match_the_reference(directory: Path, doc: dict, modes) -> set[int]:
    """For each playability mode, the failures of ``cli.run`` on the game
    ``doc`` equal the reference dicts; ``_dumps`` of the report is
    ``json.dumps`` of it and of the report holding the reference dicts, and
    the ``--out`` file is that text and a newline.  Returns the solution
    counts listed."""
    path = directory / "game.json"
    path.write_text(json.dumps(doc))
    model = load_game(str(path)).model
    out = directory / "report.json"
    counts = set()
    for raw in modes:
        mode = cli._parse_playability_mode(raw)
        expected = reference_failures(model, check_playability(model, mode))
        report, code = cli.run("playability", str(path), {"mode": raw}, DEFAULT_CAP, mode)
        listed = report["results"]["failures"]
        assert listed == expected
        assert code == (cli.EXIT_VALIDATION if expected else cli.EXIT_OK)
        text = _dumps(report)
        assert_same_text(text, json.dumps(report, indent=2))
        reference = {**report, "results": {**report["results"], "failures": expected}}
        assert_same_text(text, json.dumps(reference, indent=2))
        out.unlink(missing_ok=True)
        assert main(["playability", "--mode", raw, "--game", str(path), "--out", str(out)]) == code
        assert_same_text(out.read_text(encoding="utf-8"), text + "\n")
        counts.update(f["solutions"] for f in expected)
    return counts


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 999))
def test_playability_reports_match_the_failure_by_failure_rule(seed, n, sample_seed):
    """On a random model without a sequential order
    (``random_nonsequential_model``: explicit and cylinder information, one
    to three actions per agent) whose element and player names need
    escaping, in ``all`` and ``sample`` modes."""
    model = random_nonsequential_model(random.Random(seed))
    doc = escaped(export_custom(playability_game(model)))
    with tempfile.TemporaryDirectory() as tmp:
        assert_failures_match_the_reference(Path(tmp), doc, ["all", f"sample={n},seed={sample_seed}"])


def test_cyclic_failures_with_no_and_with_several_solutions_match_the_reference(tmp_path):
    doc = escaped(json.loads((GAMES_DIR / "cyclic_three_agents.json").read_text()))
    counts = assert_failures_match_the_reference(tmp_path, doc, ["all", "sample=300,seed=7"])
    assert {0, 2} <= counts


def test_failures_are_written_without_walking_them(tmp_path, monkeypatch):
    """A report's playability failures reach the writer as one composed
    text, so the writer's calls of ``_encode`` do not grow with the failure
    count.  The first 1000 profiles sampled are those of a 1000-profile
    sample, so doubling the sample adds failures."""
    encoded = 0
    encode = cli._encode

    def counted(*args):
        nonlocal encoded
        encoded += 1
        return encode(*args)

    monkeypatch.setattr(cli, "_encode", counted)
    path = str(GAMES_DIR / "cyclic_three_agents.json")
    out = tmp_path / "report.json"
    calls, failures = [], []
    for n in (1000, 2000):
        encoded = 0
        assert main(["playability", "--mode", f"sample={n},seed=7", "--game", path, "--out", str(out)]) == 2
        calls.append(encoded)
        failures.append(len(json.loads(out.read_text())["results"]["failures"]))
    assert failures[1] - failures[0] > 200
    assert calls[1] - calls[0] < (failures[1] - failures[0]) / 10


@pytest.mark.parametrize(
    "game,mode",
    [
        ("cyclic_three_agents.json", "all"),
        ("cyclic_three_agents.json", "sample=300,seed=7"),
        ("nature_orders.json", "all"),
        ("prisoners_dilemma.json", "all"),
    ],
)
def test_run_alone_composes_the_failures(game, mode):
    """``cli.run`` called on its own returns the failure list with its text,
    which equals a list and is written as ``json.dumps`` writes it; a
    playable game's list is empty."""
    path = str(GAMES_DIR / game)
    report, code = cli.run("playability", path, {"mode": mode}, DEFAULT_CAP, cli._parse_playability_mode(mode))
    listed = report["results"]["failures"]
    assert (code, bool(listed)) == ((2, True) if game.startswith("cyclic") else (0, False))
    assert listed == json.loads(json.dumps(listed))
    assert listed.depth == 2
    assert_same_text(listed.text, json.dumps(listed, indent=2).replace("\n", "\n    "))
    assert_same_text(_dumps(report), json.dumps(report, indent=2))


# A lone surrogate is valid in a JSON game file but cannot be encoded as
# UTF-8; the text outputs write it backslash-escaped, as JSON escapes it.
SURROGATE = "x\ud800"


def test_text_outputs_escape_what_utf8_cannot_encode(tmp_path):
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(renamed(tied_game(2), {"f0": SURROGATE})))
    out, csv = tmp_path / "report.txt", tmp_path / "matrix.csv"
    assert main(["nash", "--game", str(path), "--format", "text", "--out", str(out)]) == 0
    assert "  [l: l:a; f: f:x\\ud800] values: l=0, f=0\n" in out.read_text(encoding="utf-8")
    assert main(["normal-form", "--game", str(path), "--csv", str(csv)]) == 0
    assert csv.read_text(encoding="utf-8").split("\n")[0] == ",f:x\\ud800,f:f1"
    # The JSON report is json.dumps of the report, which escapes it alike.
    assert main(["nash", "--game", str(path), "--out", str(out)]) == 0
    report, _ = cli.run("nash", str(path), {}, DEFAULT_CAP)
    assert out.read_text(encoding="utf-8") == json.dumps(report, indent=2) + "\n"
    assert '"f": "f:x\\ud800"' in out.read_text(encoding="utf-8")


def test_undecodable_game_path_reaches_the_text_report(tmp_path):
    # How a path whose bytes are not UTF-8 reaches sys.argv on POSIX.
    path = tmp_path / "game\udcff.json"
    path.write_text((GAMES_DIR / "prisoners_dilemma.json").read_text())
    out = tmp_path / "report.txt"
    assert main(["validate", "--game", str(path), "--format", "text", "--out", str(out)]) == 0
    assert f"game: {tmp_path}/game\\udcff.json\n" in out.read_text(encoding="utf-8")


# The sha256 of each JSON ``--out`` report of the CI "Report byte identity"
# loop on the shipped games, run from the repository root with a relative
# ``--game`` path (``None``: the run writes no report).  Unlike the
# ``bench/refs`` digests, these cover ``timing`` and ``diagnostics``, so a
# change to evaluation counts or tie diagnostics fails here.  Re-record them
# only for an intended report change.
REPORT_SHA256 = [
    ("cyclic_three_agents.json", "validate", 0, '4da99965f9addf9bda5a1ad661854ad6ac763e1d562fe0e0c82c6ba2fb17982f'),
    ("cyclic_three_agents.json", "strategies", 0, '7c3472bd9f8f6f22dadfbb084e15769c0d5f82791f8859b58e7dd7b739fe167d'),
    ("cyclic_three_agents.json", "playability --mode all", 2, '237257068af15d24d7f618e22c3762b623dae7c566fc9b13112ebde181135bb2'),
    ("cyclic_three_agents.json", "playability --mode sample=5,seed=1", 2, 'bfefa032819082d8e5d53f25977df9ee81277d01e20b12c3ca2ce2dba2e5fefa'),
    ("cyclic_three_agents.json", "nash", 2, None),
    ("cyclic_three_agents.json", "stackelberg --mode theta=0.5", 2, None),
    ("cyclic_three_agents.json", "stackelberg --mode pessimistic", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode optimistic", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode pessimistic", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode theta=0.5", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode leader-risk=worst-case", 2, None),
    ("cyclic_three_agents.json", "normal-form", 2, None),
    ("cyclic_three_agents.json", "export", 0, '1de2e275bc2e4407f7becb4cd31e10c96e4f782008c1fa3a650ca9bb994ce9b8'),
    ("nature_orders.json", "validate", 0, 'd78bc084d3799eaadf393f954e1b54048c85380bf2d655d94fc04e0d2ed4b59e'),
    ("nature_orders.json", "strategies", 0, 'f5cf3d03f37ff6053247a2dd6bbd8d4ec5296b2c1aedcbfe33200fcbdd2186f4'),
    ("nature_orders.json", "playability --mode all", 0, '87140212281c39fc6bc2011f970397fccea24f5e68dfae22664848711c973e00'),
    ("nature_orders.json", "playability --mode sample=5,seed=1", 0, '1e9827724db4d9ead1aee656a9c722a5734c61dd246e13fbb894103e46f5bcbb'),
    ("nature_orders.json", "nash", 0, '05425ed1ca953ac9f1703402d07e62dc6530a14621a418429f0a3d42460cd44a'),
    ("nature_orders.json", "stackelberg --mode theta=0.5", 0, '6c8b1166ae40d0780d44f28c88457a525ac510673380b0f2e216b4897dbc36ee'),
    ("nature_orders.json", "stackelberg --mode pessimistic", 0, '9f190627e83c961b5f21035ae9109c608d7bab07f93199247c3cf7a6e799868c'),
    ("nature_orders.json", "nash-stackelberg --mode optimistic", 0, 'b563f9d4583b0cd9d9b476c5db4a6557b8a72f014d8a65d7d2cca3691918db33'),
    ("nature_orders.json", "nash-stackelberg --mode pessimistic", 0, '796f67f47d7c4853a371b0221e295ec67bcb7c9993279569552d6189de022bc5'),
    ("nature_orders.json", "nash-stackelberg --mode theta=0.5", 0, 'e1ea881cd92268da09150626aa064cecd3e77112f89d389d382d4ce1a297cf99'),
    ("nature_orders.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 0, '0d97729e4caac0263807c58da0ba3b495e5a5995d66a79e0b36b01c257b9588f'),
    ("nature_orders.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 0, '05aac9a0ede0985ba859af09d2d44f52452b73990fa6d4fa99e3a69d8ad97889'),
    ("nature_orders.json", "nash-stackelberg --mode leader-risk=worst-case", 0, '7c6d5274294909ef66f7954eae391e476ce67c39958913ca15bebbc083dccaf1'),
    ("nature_orders.json", "normal-form", 0, 'fa4d5e7dc2abdd1f196c54594b330f2c45c611b819c8fc71104e0413117c17f9'),
    ("nature_orders.json", "export", 0, 'b8b0db20a740c7db430e230f82fd6a56792d49092b75b2914d0b78b037ce7812'),
    ("prisoners_dilemma.json", "validate", 0, 'db28d7869b97dd92e02ea771731262c8d4dd8dcfe7d6aeba31da7b5fddcf17de'),
    ("prisoners_dilemma.json", "strategies", 0, 'd381e60bb7c484c2b84d3ad94fafb600077d3e5c0e82c7134e16aaec2f75e942'),
    ("prisoners_dilemma.json", "playability --mode all", 0, '85d6226610f1674095d9f35cac4262fc3b63629b19bca028cfc246f885c6ebbb'),
    ("prisoners_dilemma.json", "playability --mode sample=5,seed=1", 0, '4b5181c940c9dac916752603f5649c85a643599beadfb5bca70a31d1a3081a39'),
    ("prisoners_dilemma.json", "nash", 0, '9e6095acd94b56b187d3d1c288d04c10f6c06f6ac21c52851ed4fe226efde96b'),
    ("prisoners_dilemma.json", "stackelberg --mode theta=0.5", 2, None),
    ("prisoners_dilemma.json", "stackelberg --mode pessimistic", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode optimistic", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode pessimistic", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode theta=0.5", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode leader-risk=worst-case", 2, None),
    ("prisoners_dilemma.json", "normal-form", 0, '9b1a10b920708b2823c90836e5e52f2a16cacaf13c65aa93ebd4af33c3c6c26d'),
    ("prisoners_dilemma.json", "export", 0, '145830d3c6496c70c1f8389fb1283d18b3d913cc0142685155430f5bfc23d0e5'),
    ("thai_dr_single.json", "validate", 0, 'd57f380948375fbbc57340666811014aff6c7789f6e13c0c790e4a1fcac0e192'),
    ("thai_dr_single.json", "strategies", 0, '459faff3be9d8b2960c99aaf28f225e1d4a42f81b2ad1b1a6c50e1b458813ac9'),
    ("thai_dr_single.json", "playability --mode all", 0, '25979a2ea72515f1492618da13bb663d214e4d38bcd6f0dd8a0eced3533e9687'),
    ("thai_dr_single.json", "playability --mode sample=5,seed=1", 0, '464d6acf38bf9b2d12965e6194043a747bcc51b01296bbc9ceafc01f5937c557'),
    ("thai_dr_single.json", "nash", 0, 'eb543483e2a0947e759f3b3aa1c7d8e31de82a72884ab1e2179a281b3572d36b'),
    ("thai_dr_single.json", "stackelberg --mode theta=0.5", 0, '6e66ac9bf8a05f8b1457f49f37b4946f356a9230de5a9de80c6c742bf5c1ec9d'),
    ("thai_dr_single.json", "stackelberg --mode pessimistic", 0, '069199b7ce74c4b260cad5c59c4e53a0fbed4900f3943e76636b4292333ac604'),
    ("thai_dr_single.json", "nash-stackelberg --mode optimistic", 0, 'f7bf0483d815317a4a1a39171138e9b67346fd9d3df0d6cf359c079b48c39ba8'),
    ("thai_dr_single.json", "nash-stackelberg --mode pessimistic", 0, '52c97b541194d3b70704d3cfd6208c3fae8463a73d0e4e2781bb353fbbfffb86'),
    ("thai_dr_single.json", "nash-stackelberg --mode theta=0.5", 0, '6e2cf6c615d3b8bccb20fd9b61db82689957798341aadc431e00f20bead1160b'),
    ("thai_dr_single.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 0, '53b5335e4fc3725b5f1bac9b6d801c65187d3af77503dd771f348b01fae98860'),
    ("thai_dr_single.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 0, 'dd36533c7c0697806324d65c758f983fa1cbecdea35091bbe5be568283711ea0'),
    ("thai_dr_single.json", "nash-stackelberg --mode leader-risk=worst-case", 0, '6561b303688140e3c0ba2154a0a810e8bc82805a907d03dbf5fb98e7f20b0db2'),
    ("thai_dr_single.json", "normal-form", 0, 'b82afc762c7c2264753bb3f01cbc7fb870dd4b2e86b151ca70c4d00009c8c5a3'),
    ("thai_dr_single.json", "export", 0, '148a1748a2ba731d322920abafc482f6fd3ae437b680c51e5b17899721b46f91'),
    ("thai_two_consumers.json", "validate", 0, '146805ca6a98b13acfce882d444b464f13f72eb238650214bfab401d5bd4fac6'),
    ("thai_two_consumers.json", "strategies", 0, '5ee587ba9ef62eb66bae2d9120f69d61acd35c16bfba3828ebcc6a0a28dd7b24'),
    ("thai_two_consumers.json", "playability --mode all", 0, 'f9dc425e8510a9e786486fb5305a0a818fb6f4f40cd91be040aa1d383e899b8a'),
    ("thai_two_consumers.json", "playability --mode sample=5,seed=1", 0, 'a62980978824aad715b0f0fedd32606125805c42e1f23070443aa121b2cab8a3'),
    ("thai_two_consumers.json", "nash", 0, '198bb6037f25c134dcc480bb79f65dfce7e375c8893b8dad0ebb4e69c5c338e9'),
    ("thai_two_consumers.json", "stackelberg --mode theta=0.5", 0, '67aa501ef9e05a87ae950ca4f729dc339fe317b10d6e39b34ba83df1d4d3e50d'),
    ("thai_two_consumers.json", "stackelberg --mode pessimistic", 0, '0d86fac5d2dd8a64b73b661b17466ca23dd624dc04c1d05de6c6abf0aca01401'),
    ("thai_two_consumers.json", "nash-stackelberg --mode optimistic", 0, 'eb50be6e2b01b15b4fe23a05da698d1ff0457385d377d85937eae041effa6158'),
    ("thai_two_consumers.json", "nash-stackelberg --mode pessimistic", 0, '56e439518c382591860562181c9d09409166fcff9d122929b6515bf3cab8744e'),
    ("thai_two_consumers.json", "nash-stackelberg --mode theta=0.5", 0, 'd05f0e1544ee7eb4d13dedbe4683d692d5e3bc6e5f3bbf08fc20c8c822ebb176'),
    ("thai_two_consumers.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 0, 'b3bbfd958ba5ccde939cea8e5580d9a1aa6f2afe2a8e999d3c88f419de8f585e'),
    ("thai_two_consumers.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 0, '7d573f627bd7dc083279f234d6b78f38ab7b3c14ffc28280f27675e3ec6eeeb0'),
    ("thai_two_consumers.json", "nash-stackelberg --mode leader-risk=worst-case", 0, '5f15ea6a66318b326f6f75446bfb624401f4b2266b858fd65e95218c8fe154e1'),
    ("thai_two_consumers.json", "normal-form", 2, None),
    ("thai_two_consumers.json", "export", 0, 'f70fd49e86bad84c4927974293a35d55a1804fd33713e0b01e4161e577d591ec'),
    ("tou_pricing.json", "validate", 0, 'ca63b7ffb2f7f21d606371808b66724b17a1d250460abf8249869d175fdf9304'),
    ("tou_pricing.json", "strategies", 0, '531af368da9c35cf36c93066bc90fc1b12b3fdcd648344987689a664648e73fc'),
    ("tou_pricing.json", "playability --mode all", 0, 'df08ca76bcc37351de3586b4eb69464d45b39ff3498963830fc05618b42a1c33'),
    ("tou_pricing.json", "playability --mode sample=5,seed=1", 0, '4a0c9cf9cda354949afde1792131d10f11d526f811ed4d2936c728281f307784'),
    ("tou_pricing.json", "nash", 0, '9d176c336e033e621d178d42996c54a705b3654d85c31f4daad0766ad99e4a02'),
    ("tou_pricing.json", "stackelberg --mode theta=0.5", 0, '8d096565351f6de74991ad0d71533acb2458415c90e04fb8b7d90c64d2a141d4'),
    ("tou_pricing.json", "stackelberg --mode pessimistic", 0, '60453bc61b7488c00274bebcc9c1f95c9f681880895126e9b2c645cd16f4040b'),
    ("tou_pricing.json", "nash-stackelberg --mode optimistic", 0, '032622475c55f2c813f8092d7c2fc9210698656fa2ba8dd1d5a17414213a7a12'),
    ("tou_pricing.json", "nash-stackelberg --mode pessimistic", 0, '9282aada60c47d7b694b3edfc5531106cf9f89ef53d8fcc15c02e97db960173b'),
    ("tou_pricing.json", "nash-stackelberg --mode theta=0.5", 0, 'fb4a7c15a5dfb647166cf111d3d7a5510a90eb04e2530fa35214939a845b1c50'),
    ("tou_pricing.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 0, '9e81f02a731436908386e4f7770147f083a54cc92746bb52b78174d101b6fcae'),
    ("tou_pricing.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 0, 'e17ba227e7cf2f370ae7c45cb194dc5f1498790a355ede2835d1cea4ab8e6ff9'),
    ("tou_pricing.json", "nash-stackelberg --mode leader-risk=worst-case", 0, 'f15062b148a3bdaf0bb17cafc36a9f5c9e3d00c5d68c6bb24caa81155094b2d7'),
    ("tou_pricing.json", "normal-form", 0, '22069a6e8e2b3d97d401855e4e3754dafbc7cef49a59732bef7bd95097499856'),
    ("tou_pricing.json", "export", 0, '015d23a45865029df8b2f9035d714ed8c23475ffdf0570445ca0351a025d2c99'),
]


@pytest.mark.parametrize("game, command, code, sha256", REPORT_SHA256)
def test_shipped_game_reports_are_pinned(tmp_path, monkeypatch, capsys, game, command, code, sha256):
    monkeypatch.chdir(GAMES_DIR.parent)
    out = tmp_path / "report.json"
    assert main([*command.split(), "--game", f"games/{game}", "--out", str(out)]) == code
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert digest == sha256


# The sha256 of each ``--format text --out`` report of the same runs.  The
# text is derived from the JSON report, so these pin what it reads of it:
# labels, shared "values" objects and counters.
TEXT_REPORT_SHA256 = [
    ("cyclic_three_agents.json", "validate", 0, '10bb24bfc59a50876e7d28c28fa787b1fc724fb8b3ed847981cf637bdb51f2a4'),
    ("cyclic_three_agents.json", "strategies", 0, '45ad88c5fac0f72f825eef443658ed782b4b561575018f98ace0a4cc0b22e0fa'),
    ("cyclic_three_agents.json", "playability --mode all", 2, 'c5c9e6fbdb34d25892f1bfe72111bd59b18298e73b0d64e9b48678f34c6c8b2d'),
    ("cyclic_three_agents.json", "playability --mode sample=5,seed=1", 2, '263755d4665e4e7e37d59f5c33c77f7c42bd2ca876c29f45252e3353e9b6e81d'),
    ("cyclic_three_agents.json", "nash", 2, None),
    ("cyclic_three_agents.json", "stackelberg --mode theta=0.5", 2, None),
    ("cyclic_three_agents.json", "stackelberg --mode pessimistic", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode optimistic", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode pessimistic", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode theta=0.5", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 2, None),
    ("cyclic_three_agents.json", "nash-stackelberg --mode leader-risk=worst-case", 2, None),
    ("cyclic_three_agents.json", "normal-form", 2, None),
    ("cyclic_three_agents.json", "export", 0, '1de2e275bc2e4407f7becb4cd31e10c96e4f782008c1fa3a650ca9bb994ce9b8'),
    ("nature_orders.json", "validate", 0, 'e0e9a8b9914000430fa7d04fbc96817b1f35a7321f2b67eb7f880e716e15e557'),
    ("nature_orders.json", "strategies", 0, 'b2c17a7e2ce259088e21b7e22a1fd4f51ad03c11571f6a1a4fd155c6e690c84e'),
    ("nature_orders.json", "playability --mode all", 0, '3567b619b4b7ec14c4e5b23e5318d73578615dd97c7b6750223fc65982b797fe'),
    ("nature_orders.json", "playability --mode sample=5,seed=1", 0, '5ca79669f37e51278696d1d78a536c8e9e200a87ef4571408c1bd44a622fe402'),
    ("nature_orders.json", "nash", 0, '16483bc06555d61b16b83b6e99d5453ec1af00c5e586c50749cece57245cf23b'),
    ("nature_orders.json", "stackelberg --mode theta=0.5", 0, '2e1fa07aa1105ed4d012a873f82a83cdb407215335e8195081f0fed9a1f6bb7e'),
    ("nature_orders.json", "stackelberg --mode pessimistic", 0, '25f78fa26751afcc771a09297f9a8710c6d376052824f4ab924d9c32535b67b2'),
    ("nature_orders.json", "nash-stackelberg --mode optimistic", 0, '4393aa76cbf90c5dc5016f18d197bfbf6c7b1164d9ffdd6e3d0ab341a5d5ff72'),
    ("nature_orders.json", "nash-stackelberg --mode pessimistic", 0, 'f967f050265d23ed267761223f09c6eb9e2dcf835e4630eb3422d2fa470d2bab'),
    ("nature_orders.json", "nash-stackelberg --mode theta=0.5", 0, '53037eee0937342039f3d67087d91ee34e275554fe618043d98fed39c522d80c'),
    ("nature_orders.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 0, '791a277a9a71f0aeadf4f51fa9c2344ff3434d21649afaa7a5eaada3e8d35286'),
    ("nature_orders.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 0, 'cfc3ce04b3af61fb3891c93219fe7ffe02410a2a063137c3b05dd637aedf2022'),
    ("nature_orders.json", "nash-stackelberg --mode leader-risk=worst-case", 0, '54316682864089e2fc3913560d06e155b939072ca6e927054b89ad8f989c0c01'),
    ("nature_orders.json", "normal-form", 0, '460f1e5eadd8c687b7d84e5f2782abd60629ddfab70672383caa5c57f08cd452'),
    ("nature_orders.json", "export", 0, 'b8b0db20a740c7db430e230f82fd6a56792d49092b75b2914d0b78b037ce7812'),
    ("prisoners_dilemma.json", "validate", 0, 'a07669a502699f88e5c671e274abdf0d4669d57bc0ab0d068b399ba0e1add593'),
    ("prisoners_dilemma.json", "strategies", 0, '9b4da4bb2c9eca58183afb42a611bdfd6121be4217a754f9499f78d8a4e286fd'),
    ("prisoners_dilemma.json", "playability --mode all", 0, '35a2d5039adb9ac411b5dbc72f02a3d1eb86e79b9bcb2099514f680f8a3e882e'),
    ("prisoners_dilemma.json", "playability --mode sample=5,seed=1", 0, '1382f2b492449356df7fe74059391ccdc72ab12916e65b6375ec642f908a1c23'),
    ("prisoners_dilemma.json", "nash", 0, '2994cf9144beaa20da424825442ec3a3290df1cbbf41c8b978b9688addd70e3f'),
    ("prisoners_dilemma.json", "stackelberg --mode theta=0.5", 2, None),
    ("prisoners_dilemma.json", "stackelberg --mode pessimistic", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode optimistic", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode pessimistic", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode theta=0.5", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 2, None),
    ("prisoners_dilemma.json", "nash-stackelberg --mode leader-risk=worst-case", 2, None),
    ("prisoners_dilemma.json", "normal-form", 0, '048e60e8182e9994aaef166bde66807a533be1fb860cb1556f36091b519285da'),
    ("prisoners_dilemma.json", "export", 0, '145830d3c6496c70c1f8389fb1283d18b3d913cc0142685155430f5bfc23d0e5'),
    ("thai_dr_single.json", "validate", 0, '69f4e9d67ce0313b4091509c1450f8a83f69138cf5076dd0efc13316447e300d'),
    ("thai_dr_single.json", "strategies", 0, '37b2dd104be4d3d38b3e7faf54bd7a5e3b06d74dbb4b2e9c72cd60361a0809ff'),
    ("thai_dr_single.json", "playability --mode all", 0, 'a1ce00a327b41ac6084eb703eb29ddb598954befe4ee43ec47ee633c583a936d'),
    ("thai_dr_single.json", "playability --mode sample=5,seed=1", 0, '64a1cd289917f770a688591fea65dcb36ae2bdcce8d81d96742679e3a0fb1ffb'),
    ("thai_dr_single.json", "nash", 0, 'cafe82f526a837746d76077d9d2726ef6fb2dd36c2cf8f750d5e878cbcc23cf4'),
    ("thai_dr_single.json", "stackelberg --mode theta=0.5", 0, '3cc0d9f268fc6cc6918ae34aa190837bcb3e5fb73b2583f0db58bc4541819cd7'),
    ("thai_dr_single.json", "stackelberg --mode pessimistic", 0, '1c08d18fc0bcf842ca9dbfea3eceda494f8ce8afb39c7bbb5aeed4f6eb2edd44'),
    ("thai_dr_single.json", "nash-stackelberg --mode optimistic", 0, 'd619e852b90ffe1ba2779c515064262539c886c20197e45360a3e412d17d03f8'),
    ("thai_dr_single.json", "nash-stackelberg --mode pessimistic", 0, '5999f80338827947bb1a68cb3247162a48b62a01821c2dfaef09bcf4c53840a3'),
    ("thai_dr_single.json", "nash-stackelberg --mode theta=0.5", 0, 'c1e5f992cf2235b8467b03d1609c9270c814edf575bb9a6177cbac9f6f8a0095'),
    ("thai_dr_single.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 0, '3c0aae660390f1471cc566a13f44f31734e35cb9ba6cb53ac16c1ecd5cc891c2'),
    ("thai_dr_single.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 0, 'f3933950e289decff46427a3d8b099d5914ee536ace42b82face9b36e52ef0e0'),
    ("thai_dr_single.json", "nash-stackelberg --mode leader-risk=worst-case", 0, 'ec7df0546b78f540ca4fa471f4bd89bf9d3a9b5f2b09dcd42ed55a674284e1ed'),
    ("thai_dr_single.json", "normal-form", 0, '920c2265cc986a1c638924968497ccb31b6768f2b4b47a5c13d1e09bed16993d'),
    ("thai_dr_single.json", "export", 0, '148a1748a2ba731d322920abafc482f6fd3ae437b680c51e5b17899721b46f91'),
    ("thai_two_consumers.json", "validate", 0, 'f56a15a690f87e3f39adde7bdbbd09832801b9767500693e539299004e65fd75'),
    ("thai_two_consumers.json", "strategies", 0, 'a75c54a1aade1a5a22522784089fc4a2cef4540eb2be5c3f64a6e13c1b50398d'),
    ("thai_two_consumers.json", "playability --mode all", 0, '028116fb9a851ec153d80cb9f52c120193a11b4ede8a974bd7d7ef808959f451'),
    ("thai_two_consumers.json", "playability --mode sample=5,seed=1", 0, 'b402f0c719b8d584802fa686cf5ff5473a94861c63969ac2d44c51f1abee47d4'),
    ("thai_two_consumers.json", "nash", 0, 'eca965b5bbfc546b87cc87a4540ad805b874f2710555fe7edb0754bc97d0af12'),
    ("thai_two_consumers.json", "stackelberg --mode theta=0.5", 0, '71e255de1950c59e68fde62991600711f531f2a5423108544d8ad4d0b0e2fef0'),
    ("thai_two_consumers.json", "stackelberg --mode pessimistic", 0, 'c67b6a4440048617c83cabed7f3cbd431ecee62b0b5ef3311a7300afd1a2802a'),
    ("thai_two_consumers.json", "nash-stackelberg --mode optimistic", 0, 'ccc2e56c166f0df383edeefa395201722fe51b62c6235a7a8fe5beb6e7e9d81d'),
    ("thai_two_consumers.json", "nash-stackelberg --mode pessimistic", 0, '06e0538dfcb0094a2956b1491376bf6c5f5d95c2e00fd197d933ad4ec59312a6'),
    ("thai_two_consumers.json", "nash-stackelberg --mode theta=0.5", 0, 'b05c084b2ee54ab0dae500a0dcc5588c91e8de4b856b5d4a8aee5b77cec6c19f'),
    ("thai_two_consumers.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 0, 'bac9983f4b299e86688f4bc3c59b8492f778527899e6ed6eae3d7f8584573693'),
    ("thai_two_consumers.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 0, 'f8a82053825866061d050edb2b7d521163e1325dc84d3c3e9d3d56937174654d'),
    ("thai_two_consumers.json", "nash-stackelberg --mode leader-risk=worst-case", 0, '5f9a54c03492bb21bd2466bcaa232c4951402eac775c7aa429c0027b55382b96'),
    ("thai_two_consumers.json", "normal-form", 2, None),
    ("thai_two_consumers.json", "export", 0, 'f70fd49e86bad84c4927974293a35d55a1804fd33713e0b01e4161e577d591ec'),
    ("tou_pricing.json", "validate", 0, '859775e26dc5f1d9fb261c75a64f0b2a1c2c29a5a096a5a754e7b3099bf4c23d'),
    ("tou_pricing.json", "strategies", 0, '24a685a4cfcbf0f6550383c70458819c3623a70b4b051085ef3f20ed58e8bc3c'),
    ("tou_pricing.json", "playability --mode all", 0, '0976814574ecef6f5829e4da97055749a737863ad84fe856a9f75f8570873a59'),
    ("tou_pricing.json", "playability --mode sample=5,seed=1", 0, 'ff8fa260a5c5ab4a96d18fba6d0dc0cd391b8af006b56540a0508effdefbc076'),
    ("tou_pricing.json", "nash", 0, 'f96d32a2218b3ff440e07d6a6e207f26bef6a9414026c513ca756b15cb59efe1'),
    ("tou_pricing.json", "stackelberg --mode theta=0.5", 0, 'cef6d0b76345147c316f4a8da14ca342b209cadcfdea9629f1f677fb17098d79'),
    ("tou_pricing.json", "stackelberg --mode pessimistic", 0, '159c34a73bc77afbe4e80c6d74a93cf4ce14ec619e1bf49d30acf36714900dbf'),
    ("tou_pricing.json", "nash-stackelberg --mode optimistic", 0, '6c69eb5b608620e3dadf5156bf7fd21d0b0d05813bf6cb46c15aa7eccffdd100'),
    ("tou_pricing.json", "nash-stackelberg --mode pessimistic", 0, 'f0f6015d05f7ccc24c534f27480e656505b26129f646341c256c99c1578a5f89'),
    ("tou_pricing.json", "nash-stackelberg --mode theta=0.5", 0, '2ae1ecdfe4c0c0f4687cc123e55f8be09c88015793e826dc5b6d92be043c6524'),
    ("tou_pricing.json", "nash-stackelberg --mode leader-risk=cvar:0.5", 0, 'e1497f3370fa0b8b244626f38f99dedddd46a7ef8145a2857402fab604ef4e9b'),
    ("tou_pricing.json", "nash-stackelberg --mode leader-risk=expectation-uniform", 0, '0160728118a51387988c40ccc38427e9738a4c6ddf3499cbe0a8b2b4bbf64782'),
    ("tou_pricing.json", "nash-stackelberg --mode leader-risk=worst-case", 0, '200df95f96df8ef78960a59df1dff11cf62cbd61410ba4d32c307632d86f43b0'),
    ("tou_pricing.json", "normal-form", 0, 'e2bdc58c326a37be6951bfbe4ecb3f545efb16fb04d2648754f0c1115a3ac431'),
    ("tou_pricing.json", "export", 0, '015d23a45865029df8b2f9035d714ed8c23475ffdf0570445ca0351a025d2c99'),
]


@pytest.mark.parametrize("game, command, code, sha256", TEXT_REPORT_SHA256)
def test_shipped_game_text_reports_are_pinned(tmp_path, monkeypatch, game, command, code, sha256):
    monkeypatch.chdir(GAMES_DIR.parent)
    out = tmp_path / "report.txt"
    args = [*command.split(), "--game", f"games/{game}", "--format", "text", "--out", str(out)]
    assert main(args) == code
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert digest == sha256
