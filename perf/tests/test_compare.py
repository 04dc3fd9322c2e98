import compare


def result(host_s=1.0, sim_p50_us=100.0, fingerprint=7, spread=0.01, seed=1):
    return {
        "seed": seed,
        "metrics": {"host_s": {"value": host_s, "unit": "s"},
                    "sim_p50_us": {"value": sim_p50_us, "unit": "us"}},
        "spread": {"host_s": spread},
        "info": {"sim_fingerprint": fingerprint},
    }


def files(a, b):
    return {"end_to_end": {"w": a}}, {"end_to_end": {"w": b}}


METRICS = [
    {"name": "host_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "sim_p50_us", "unit": "us", "better": "lower", "bound": 0.10},
]


def rows(a, b):
    return compare.compare(*files(a, b), METRICS)


def words(a, b):
    return [row[-1] for row in rows(a, b)]


def test_verdicts_follow_the_bound_in_both_directions():
    assert words(result(), result(1.05))[0] == "unchanged"
    assert words(result(), result(1.20))[0] == "regressed"
    assert words(result(), result(0.80))[0] == "improved"
    assert not compare.failed(rows(result(), result(0.80)))
    assert compare.failed(rows(result(), result(1.20)))


def test_spread_wider_than_the_bound_is_unresolved():
    assert words(result(), result(2.0, spread=0.3))[0] == "unresolved"


def test_higher_is_better_flips_the_direction():
    assert compare.verdict(100.0, 80.0, "higher", 0.05, 0.0) == "regressed"
    assert compare.verdict(100.0, 120.0, "higher", 0.05, 0.0) == "improved"


def test_sim_metrics_are_exact_at_equal_seeds():
    # 9 % is inside the cross-seed bound, but at one seed it is a change.
    worse = rows(result(), result(sim_p50_us=109.0))
    assert [row[-1] for row in worse] == ["unchanged", "regressed",
                                          "identical"]
    assert compare.failed(worse)
    better = rows(result(), result(sim_p50_us=91.0))
    assert better[1][-1] == "improved" and compare.failed(better)
    # At different seeds the inputs differ: the bound applies, and no
    # fingerprint row is printed.
    other = rows(result(), result(sim_p50_us=109.0, fingerprint=8, seed=2))
    assert [row[-1] for row in other] == ["unchanged", "unchanged"]
    assert not compare.failed(other)


def test_a_moved_timeline_fails_the_comparison():
    moved = rows(result(), result(fingerprint=8))
    assert moved[-1][-1] == "DIFFERENT"
    assert compare.failed(moved)
    assert not compare.failed(rows(result(), result()))


def test_a_base_of_zero_still_has_a_direction():
    assert compare.verdict(0.0, 3.0, "lower", 0.10, 0.0) == "regressed"
    assert compare.verdict(0.0, 3.0, "higher", 0.10, 0.0) == "improved"
    assert compare.verdict(0.0, 0.0, "lower", 0.10, 0.0) == "unchanged"


def test_a_workload_in_only_one_file_is_an_error():
    base = {"end_to_end": {"w": result(), "gone": result()}}
    change = {"end_to_end": {"w": result(), "new": result()}}
    found = compare.compare(base, change, METRICS)
    assert [(row[0], row[-1]) for row in found if row[1] == "-"] == [
        ("gone", "missing from B"), ("new", "missing from A")]
    assert compare.failed(found)
