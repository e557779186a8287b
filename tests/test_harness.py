"""Tests for the experiment harness: runner, sweeps, tables, registry, CLI."""

import pytest

from repro import graphs
from repro.harness import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    DESCRIPTIONS,
    REGISTRY,
    format_table,
    measure,
    run_algorithm,
    run_experiment,
    section,
    series,
    sweep,
)
from repro.obs import Instrument


class TestRunner:
    def test_registry_contents(self):
        assert {"luby", "algorithm1", "algorithm2"} <= set(ALGORITHMS)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            run_algorithm("quantum_mis", graphs.path(3))

    def test_measure_keys(self):
        outcome = measure("luby", graphs.path(10), seed=0)
        assert set(outcome) == {
            "rounds", "max_energy", "average_energy", "mis_size",
            "collisions", "independent", "maximal",
        }
        assert outcome["collisions"] == 0.0  # point-to-point channel
        assert outcome["independent"] == 1.0


class _ProgramRecorder(Instrument):
    """Collects the program class of every network a run builds."""

    def __init__(self):
        self.classes = set()

    def on_run_start(self, network):
        self.classes.add(type(network._template))


#: ``dense`` is dense enough that Phase I runs for algorithm1/algorithm2
#: (at n <= 300 on the log-degree, grid and geometric families only the
#: later phases' GhaffariProgram networks appear).
TABLE_GRAPHS = {
    "sparse": lambda: graphs.make_family("gnp_log_degree", 64, seed=5),
    "dense": lambda: graphs.gnp_expected_degree(250, 120.0, seed=1),
}


@pytest.mark.parametrize("graph_kind", sorted(TABLE_GRAPHS))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_table_lists_every_program_class_the_driver_runs(algorithm,
                                                         graph_kind):
    """The algorithm table's program classes are what the derived
    capability sets are computed from, so every network a driver builds
    must run a class its row lists."""
    row = ALGORITHM_TABLE[algorithm]
    recorder = _ProgramRecorder()
    run_algorithm(algorithm, TABLE_GRAPHS[graph_kind](), seed=1,
                  instrument=recorder)
    assert recorder.classes <= set(row.programs)
    if graph_kind == "dense":
        # The row's first class is Phase I's program (or the only one).
        assert row.programs[0] in recorder.classes


class TestSweep:
    def test_sweep_shape(self):
        points = sweep(["luby"], [32, 64], seeds=2)
        assert len(points) == 2
        assert points[0].seeds == 2
        assert points[0].summaries["rounds"].count == 2

    def test_series_extraction(self):
        points = sweep(["luby"], [32, 64], seeds=2)
        rounds = series(points, "luby", "rounds")
        assert set(rounds) == {32, 64}

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep([], [32])
        with pytest.raises(ValueError):
            sweep(["luby"], [])
        with pytest.raises(ValueError):
            sweep(["luby"], [32], seeds=0)


class TestTables:
    def test_format_alignment(self):
        table = format_table(["a", "bb"], [[1, 2], [30, 40]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        table = format_table(["x"], [[3.14159]])
        assert "3.14" in table

    def test_section_underline(self):
        text = section("Title", "body")
        assert "=====" in text


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        expected = (
            {f"E{i}" for i in range(1, 12)}
            | {"A1", "A2", "A3"}
            | {"C1", "D1", "F1"}
        )
        assert expected == set(REGISTRY)
        assert expected == set(DESCRIPTIONS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_e6_quick(self):
        report, data = run_experiment("E6", quick=True)
        assert "E6" in report
        assert data["verified"]

    def test_e10_quick(self):
        report, data = run_experiment("E10", quick=True)
        assert "E10" in report
        # Concentration improves with delta.
        deltas = sorted(data)
        assert data[deltas[-1]] >= data[deltas[0]] - 0.05

    def test_e5_quick(self):
        report, _ = run_experiment("E5", quick=True)
        assert "residual" in report


class TestCLI:
    def test_main_runs(self, capsys):
        from repro.__main__ import main

        code = main(["--algorithm", "luby", "--family", "grid", "--n", "64"])
        captured = capsys.readouterr()
        assert code == 0
        assert "independent:  True" in captured.out

    def test_main_list(self, capsys):
        from repro.__main__ import main

        assert main(["--list"]) == 0
        assert "algorithms:" in capsys.readouterr().out

    def test_harness_cli_list(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--list"]) == 0
        assert "E1:" in capsys.readouterr().out

    def test_harness_cli_experiment(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--experiment", "E6", "--quick"]) == 0
        assert "overlap" in capsys.readouterr().out.lower()


class TestResultType:
    def test_repr_and_properties(self):
        result = run_algorithm("luby", graphs.path(6), seed=0)
        assert result.rounds == result.metrics.rounds
        assert result.max_energy == result.metrics.max_energy
        assert result.average_energy == pytest.approx(
            result.metrics.average_energy
        )
