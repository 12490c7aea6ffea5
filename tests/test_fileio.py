from pageorder.fileio import atomic_write


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
