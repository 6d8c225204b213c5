import pytest


@pytest.fixture
def csv_traces_config(tmp_path):
    """A 3-building config whose PV and weather come from 100-row CSVs, while
    its default days and step_seconds give 432 steps."""
    (tmp_path / "pv.csv").write_text(
        "step,pv_kw\n" + "".join(f"{k},{k % 7}.5\n" for k in range(100)))
    (tmp_path / "weather.csv").write_text(
        "step,t_out_c,q_solar_kw_m2\n" + "".join(f"{k},28.0,0.1\n" for k in range(100)))
    path = tmp_path / "cfg.yaml"
    path.write_text(f"n_buildings: 3\ntraces:\n  pv_csv: {tmp_path / 'pv.csv'}\n"
                    f"  weather_csv: {tmp_path / 'weather.csv'}\n")
    return str(path)
