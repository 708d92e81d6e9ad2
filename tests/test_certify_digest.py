"""The inputs and totals of scripts/certify_digest.py."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "certify_digest.py"
_spec = importlib.util.spec_from_file_location("certify_digest", SCRIPT)
certify_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify_digest)


def test_groups_hold_only_inputs_in_the_handled_range():
    groups = certify_digest.groups()
    rounds, scales = len(certify_digest.CERTIFY_ROUNDS), len(certify_digest.ORACLE_SCALES)
    assert len(groups) == 2 * rounds + scales + 1  # the last group is criterion 7c's
    for name, tuples in groups:
        assert tuples, name
        kinds = {isinstance(g, float) for t in tuples for g in t}
        assert kinds == {name.endswith("float")}, name
        for t in tuples:
            top = max(abs(g) for g in t)
            if name.endswith("float"):
                assert 1e-3 <= top <= 1e3, (name, t)
            else:
                assert top <= sys.float_info.max, (name, t)


def test_oracle_digests_do_not_depend_on_scale():
    by_scale = {name: [certify_digest.report_digest(t) for t in tuples]
                for name, tuples in certify_digest.groups() if name.startswith("oracle")}
    assert len(by_scale) == 3
    first, *rest = by_scale.values()
    assert all(digests == first for digests in rest)


def test_exact_and_float_totals_are_separate(monkeypatch, capsys):
    exact = ("exact", [(1, 2, 3, 5, 7), (2, 2, 2, 2, -1)])
    floats = ("float", [(1.0, 2.0, 3.0, 5.0, 7.0)])
    criterion_7c = (certify_digest.CRITERION_7C, [(1, 2, 3, 5, 8)])

    def totals(*groups):
        monkeypatch.setattr(certify_digest, "groups", lambda: list(groups))
        assert certify_digest.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(groups) + 3
        return {line.split("  ")[1]: line.split("  ")[0] for line in lines[-3:]}

    only_exact = totals(exact)
    both = totals(exact, floats)
    everything = totals(exact, floats, criterion_7c)
    assert set(everything) == {"TOTAL 7C", "TOTAL EXACT", "TOTAL FLOAT"}
    assert both["TOTAL EXACT"] == only_exact["TOTAL EXACT"]
    assert both["TOTAL FLOAT"] != only_exact["TOTAL FLOAT"]
    assert both["TOTAL 7C"] == only_exact["TOTAL 7C"] != everything["TOTAL 7C"]
    assert {k: everything[k] for k in ("TOTAL EXACT", "TOTAL FLOAT")} == \
        {k: both[k] for k in ("TOTAL EXACT", "TOTAL FLOAT")}


def test_totals_are_pinned(capsys):
    # Any change to a report of these inputs changes a total.
    assert certify_digest.main() == 0
    totals = dict(reversed(line.split("  ")) for line in capsys.readouterr().out.splitlines()[-3:])
    assert totals == {
        "TOTAL 7C": "1071e44fd2cf3a84df8407439051e6aa2f3acf95b3559fed2fe553f5f0080a0c",
        "TOTAL EXACT": "5e0f7cb70c2d7269834c1a6cc29c83fba6d78273d28a3d1c8539f0801d898e23",
        "TOTAL FLOAT": "4ef00bb6633744ad5821eba5ebd55656cf3cb8363d4dec7989b9065380e04378",
    }
