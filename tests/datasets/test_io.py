"""Edge-list file round-trip."""

import pytest

from repro.core.graph import Graph
from repro.datasets.generators import random_graph
from repro.datasets.io import read_edge_list, write_edge_list


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = random_graph(50, 4, seed=9, name="roundtrip")
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        back = read_edge_list(path, num_vertices=50, name="roundtrip")
        assert sorted(back.edges()) == sorted(g.edges())
        assert back.num_vertices == 50

    def test_unit_weights_written_compactly(self, tmp_path):
        g = Graph(2, [(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        lines = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert lines == ["0 1"]

    def test_num_vertices_inferred(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 5\n2 3\n")
        g = read_edge_list(path)
        assert g.num_vertices == 6
        assert g.num_edges == 2

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 2.5\n")
        g = read_edge_list(path)
        assert list(g.edges()) == [(0, 1, 2.5)]

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mygraph.txt"
        path.write_text("0 1\n")
        assert read_edge_list(path).name == "mygraph"

    def test_float_weights_preserved_exactly(self, tmp_path):
        g = Graph(3, [(0, 1, 1.2345678901234), (1, 2, 99.5)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert sorted(back.edges()) == sorted(g.edges())

    @pytest.mark.parametrize("row, detail", [
        ("3", "index"),
        ("0 x", "invalid literal for int"),
        ("0 1 heavy", "could not convert string to float"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, detail):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n0 1\n\n{row}\n2 3\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        message = str(info.value)
        assert message.startswith(f"{path}:4: ")
        assert repr(row) in message
        assert detail in message
