"""The inputs and totals of scripts/certify_digest.py."""

import hashlib
import importlib.util
import sys
from itertools import combinations
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "certify_digest.py"
_spec = importlib.util.spec_from_file_location("certify_digest", SCRIPT)
certify_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify_digest)


def test_groups_hold_only_inputs_in_the_handled_range():
    groups = certify_digest.groups()
    rounds, scales = len(certify_digest.CERTIFY_ROUNDS), len(certify_digest.ORACLE_SCALES)
    assert len(groups) == 2 * rounds + scales + 2  # the last two: criterion 7c's and the edges
    assert [name for name, _ in groups[-2:]] == [certify_digest.CRITERION_7C, certify_digest.EDGE]
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
    edges = (certify_digest.EDGE, [(1.0, -1.0 + 0.5e-9, 0.25, 0.5, -0.75)])

    def totals(*groups):
        monkeypatch.setattr(certify_digest, "groups", lambda: list(groups))
        assert certify_digest.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(groups) + 4
        return {line.split("  ")[1]: line.split("  ")[0] for line in lines[-4:]}

    only_exact = totals(exact)
    both = totals(exact, floats)
    with_7c = totals(exact, floats, criterion_7c)
    everything = totals(exact, floats, criterion_7c, edges)
    assert set(everything) == {"TOTAL 7C", "TOTAL EXACT", "TOTAL FLOAT", "TOTAL EDGE"}
    assert both["TOTAL EXACT"] == only_exact["TOTAL EXACT"]
    assert both["TOTAL FLOAT"] != only_exact["TOTAL FLOAT"]
    assert both["TOTAL 7C"] == only_exact["TOTAL 7C"] != with_7c["TOTAL 7C"]
    assert with_7c["TOTAL EDGE"] == only_exact["TOTAL EDGE"] != everything["TOTAL EDGE"]
    for label in ("TOTAL EXACT", "TOTAL FLOAT"):
        assert everything[label] == with_7c[label] == both[label]
    assert everything["TOTAL 7C"] == with_7c["TOTAL 7C"]


def test_totals_are_pinned(capsys):
    # Any change to a report of these inputs changes a total.
    assert certify_digest.main() == 0
    totals = dict(reversed(line.split("  ")) for line in capsys.readouterr().out.splitlines()[-4:])
    assert totals == {
        "TOTAL 7C": "1071e44fd2cf3a84df8407439051e6aa2f3acf95b3559fed2fe553f5f0080a0c",
        "TOTAL EXACT": "5e0f7cb70c2d7269834c1a6cc29c83fba6d78273d28a3d1c8539f0801d898e23",
        "TOTAL FLOAT": "4ef00bb6633744ad5821eba5ebd55656cf3cb8363d4dec7989b9065380e04378",
        "TOTAL EDGE": "dba4b03f39d3a8827eb644dfb5f53a628068beb15a91ec85eab24711dbe53530",
    }


def test_edge_inputs_plant_each_relation_at_each_edge_value():
    edges = iter(certify_digest.edge_inputs())
    for J in sorted(J for r in range(1, 6) for J in combinations(range(5), r)):
        for momentum in (False, True)[:len(J)]:
            for value in certify_digest.EDGE_VALUES:
                g = next(edges)
                assert max(abs(x) for x in g) == 1.0 and all(g), (J, g)
                sub = [g[j] for j in J]
                got = sum(a * b for a, b in combinations(sub, 2)) if momentum else sum(sub)
                assert abs(got - value) < 1e-15, (J, momentum, value, got)
    assert next(edges, None) is None


def test_vanishing_masks_are_pinned():
    # Two subset tables can give one verdict and still differ in a mask bit,
    # so this pin is stricter than the totals: it holds every input's
    # vanishing-pair mask, the one thing a verdict reads off its table.
    from vortexcc import VorticitySet, exceptional

    digest = hashlib.sha256()
    count = 0
    for _, tuples in certify_digest.groups():
        for t in tuples:
            digest.update(b"%x;" % exceptional._normalized(VorticitySet(t)).mask)
            count += 1
    assert count == 4327
    assert digest.hexdigest() == "eeca0a07f1d8179d206abb639ca1900ca7f08d4edef9e93b826fef99dbf59930"
