import numpy as np
import pytest

from qmlgrid.checkpoint import load_document, save_document
from qmlgrid.errors import IngestionError


class TestDocument:
    def test_round_trip_types(self, tmp_path):
        path = tmp_path / "d.conf"
        save_document(path, {
            "text": "hello",
            "count": 3,
            "rate": 0.1,
            "flag": True,
            "nothing": None,
            "items": [1, 2.5, "x"],
            "vec": np.array([1.0, 2.0]),
            "pair": (4, 5),
        })
        doc = load_document(path)
        assert doc == {"text": "hello", "count": 3, "rate": 0.1,
                       "flag": True, "nothing": None,
                       "items": [1, 2.5, "x"], "vec": [1.0, 2.0],
                       "pair": [4, 5]}

    def test_floats_keep_full_precision(self, tmp_path):
        path = tmp_path / "d.conf"
        value = 0.1 + 0.2 + 1e-17
        save_document(path, {"x": value})
        assert load_document(path)["x"] == value

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "d.conf"
        path.write_text("# header\n\nx = 1\n  # indented comment\ny = 2\n")
        assert load_document(path) == {"x": 1, "y": 2}

    def test_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "d.conf"
        path.write_text("x = 1\njunk line\n")
        with pytest.raises(IngestionError, match="line 2"):
            load_document(path)

    def test_bad_json_value_names_key(self, tmp_path):
        path = tmp_path / "d.conf"
        path.write_text("x = {not json\n")
        with pytest.raises(IngestionError, match="'x'"):
            load_document(path)

    def test_bad_key_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="key"):
            save_document(tmp_path / "d.conf", {"bad key": 1})

    def test_equals_inside_value_survives(self, tmp_path):
        path = tmp_path / "d.conf"
        save_document(path, {"s": "a = b"})
        assert load_document(path)["s"] == "a = b"
