import pytest

from hatfam.configfile import (
    ConfigError,
    data_dir,
    load_text,
    parse_config,
    value_bool,
    value_int,
    value_ints,
    value_vector,
)
from hatfam.exactnum import VecE, qs3

SAMPLE = """\
# comment line
version = 1

[alpha]
x = 3, -1*r3
flag = yes

[beta]
count = 7
items = 1 -2 3
"""


def test_parse_sections_and_values():
    cfg = parse_config(SAMPLE)
    assert cfg.version == 1
    assert value_vector(cfg.get("alpha", "x")) == VecE(qs3(3), qs3(0, -1))
    assert value_bool(cfg.get("alpha", "flag")) is True
    assert value_int(cfg.get("beta", "count")) == 7
    assert value_ints(cfg.get("beta", "items")) == (1, -2, 3)


def test_missing_section_and_key():
    cfg = parse_config(SAMPLE)
    with pytest.raises(ConfigError, match="gamma"):
        cfg.get("gamma", "x")
    with pytest.raises(ConfigError, match="missing"):
        cfg.get("alpha", "missing")


def test_version_checked():
    with pytest.raises(ConfigError, match="version"):
        parse_config(SAMPLE.replace("version = 1", "version = 2"))
    with pytest.raises(ConfigError, match="version"):
        parse_config("[alpha]\nx = 1\n")


def test_duplicate_key_rejected():
    text = "version = 1\n[a]\nk = 1\nk = 2\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_malformed_lines_report_line_number():
    text = "version = 1\n[a]\njust words\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(text)
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n")
    with pytest.raises(ConfigError, match="version"):
        parse_config("k = 1\n[a]\n")


@pytest.mark.parametrize("text,expected", [
    ("yes", True), ("true", True), ("1", True),
    ("no", False), ("false", False), ("0", False),
])
def test_value_bool(text, expected):
    assert value_bool(text) is expected


def test_value_bool_rejects():
    with pytest.raises(ConfigError):
        value_bool("maybe")


def test_value_vector_rejects():
    with pytest.raises(ConfigError):
        value_vector("1")
    with pytest.raises(ConfigError):
        value_vector("1, 2, 3")
    with pytest.raises(ConfigError):
        value_vector("1, x")


def test_value_int_rejects():
    with pytest.raises(ConfigError):
        value_int("1.5")


def test_data_dir_resolution(monkeypatch, tmp_path):
    monkeypatch.delenv("HATFAM_DATA_DIR", raising=False)
    assert data_dir().name == "data"
    assert (data_dir() / "tile.cfg").exists()
    monkeypatch.setenv("HATFAM_DATA_DIR", str(tmp_path))
    assert data_dir() == tmp_path
    # an explicit argument still beats the environment
    assert data_dir("/elsewhere").name == "elsewhere"


def test_load_text_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_text("nope.cfg", str(tmp_path))


def test_shipped_configs_parse():
    for name in ("tile.cfg", "layout.cfg"):
        cfg = parse_config(load_text(name))
        assert cfg.version == 1
