import math

import pytest

from pageorder.errors import DomainError
from pageorder.fileio import atomic_write, read_csv, write_csv


def test_text_is_written_as_utf8(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, "tau τ\n")
    assert path.read_bytes() == "tau τ\n".encode("utf-8")


def test_bytes_are_written_verbatim(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write(path, b"\x00\xff\x10")
    assert path.read_bytes() == b"\x00\xff\x10"


def test_line_ends_are_kept_as_given(tmp_path):
    path = tmp_path / "out.csv"
    atomic_write(str(path), "a,b\r\n1,2\n")
    assert path.read_bytes() == b"a,b\r\n1,2\n"


def test_replaces_existing_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("old contents that are longer\n")
    atomic_write(path, "new\n")
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]


def test_csv_cells_are_empty_for_none_repr_for_floats_and_str_otherwise(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, [["a", "b", "c", "d", "e", "f", "g", "h"], [None, 0.1, -0.0, 1e-300, math.inf, math.nan, 7, "x,y"]])
    assert path.read_bytes() == b'a,b,c,d,e,f,g,h\n,0.1,-0.0,1e-300,inf,nan,7,"x,y"\n'
    preamble, rows = read_csv(path, "abcdefgh")
    assert preamble == []
    assert rows == [dict(zip("abcdefgh", ["", "0.1", "-0.0", "1e-300", "inf", "nan", "7", "x,y"]))]


def test_csv_line_end_is_as_given_and_read_back_alike(tmp_path):
    path = tmp_path / "log.csv"
    write_csv(path, [["epoch", "tau"], [0, 0.5], [1, None]], line_end="\r\n")
    assert path.read_bytes() == b"epoch,tau\r\n0,0.5\r\n1,\r\n"
    assert read_csv(path, ["epoch", "tau"])[1] == [{"epoch": "0", "tau": "0.5"}, {"epoch": "1", "tau": ""}]


def test_csv_preamble_records_come_back_before_the_rows(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(path, [["# corpus_digest", "ab12"], ["# seed_eval", 99], ["model", "tau"], ["random", 0.25]])
    assert path.read_bytes() == b"# corpus_digest,ab12\n# seed_eval,99\nmodel,tau\nrandom,0.25\n"
    preamble, rows = read_csv(path, ("model", "tau"))
    assert preamble == [["# corpus_digest", "ab12"], ["# seed_eval", "99"]]
    assert rows == [{"model": "random", "tau": "0.25"}]


@pytest.mark.parametrize("text", ["model,tau,extra\nrandom,0.1,2\n", "# seed_eval,1\n", "", "model,tau\nrandom\n"])
def test_csv_of_other_columns_or_record_width_is_domain_error(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(DomainError):
        read_csv(path, ["model", "tau"])
