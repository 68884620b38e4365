"""Tests for the synthetic dataset generators."""

from repro.database import (
    make_cars_table,
    make_covid_table,
    make_flights_table,
    make_sales_table,
    make_sdss_tables,
    make_sp500_table,
    small_catalog,
    standard_catalog,
)


def test_generators_are_deterministic():
    a = make_cars_table(rows=50, seed=1)
    b = make_cars_table(rows=50, seed=1)
    c = make_cars_table(rows=50, seed=2)
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_cars_schema_and_domains():
    cars = make_cars_table(rows=100)
    assert cars.column_names() == ["id", "hp", "mpg", "disp", "origin"]
    assert set(cars.values("origin")) == {"USA", "Europe", "Japan"}
    assert all(40 <= hp <= 240 for hp in cars.values("hp"))
    assert all(mpg >= 9.0 for mpg in cars.values("mpg"))


def test_flights_schema_and_domains():
    flights = make_flights_table(rows=200)
    assert flights.column_names() == ["id", "hour", "delay", "dist"]
    assert all(0 <= h <= 23 for h in flights.values("hour"))
    assert all(d >= -10 for d in flights.values("delay"))


def test_sp500_is_a_sorted_date_series():
    sp = make_sp500_table(days=50)
    dates = sp.values("date")
    assert dates == sorted(dates)
    assert all(p > 0 for p in sp.values("price"))


def test_covid_covers_four_states_and_anchors_today():
    covid = make_covid_table(days=30)
    assert set(covid.values("state")) == {"CA", "WA", "NY", "TX"}
    assert len(covid) == 30 * 4
    assert max(covid.values("date")) == "2021-06-30"


def test_sales_schema_and_domains():
    sales = make_sales_table(rows=100)
    assert set(sales.values("branch")) == {"A", "B", "C"}
    assert len(set(sales.values("city"))) == 3
    assert all(t > 0 for t in sales.values("total"))
    assert min(sales.values("date")) >= "2019-01-01"
    assert max(sales.values("date")) <= "2019-03-31"


def test_sdss_tables_join_and_domains():
    galaxy, spec = make_sdss_tables(rows=50)
    assert len(galaxy) == len(spec) == 50
    assert set(spec.values("bestObjID")) == set(galaxy.values("objID"))
    assert all(213.0 <= ra <= 214.2 for ra in spec.values("ra"))
    assert all(-1.0 <= dec <= 0.0 for dec in spec.values("dec"))
    assert all(0.13 <= z <= 0.15 for z in spec.values("z"))


def test_standard_catalog_contains_all_workload_tables():
    cat = standard_catalog(scale=0.1)
    for table in ("T", "Cars", "flights", "sp500", "covid", "sales", "galaxy", "specObj"):
        assert cat.has_table(table)


def test_catalog_scale_controls_row_counts():
    small = standard_catalog(scale=0.1)
    large = standard_catalog(scale=0.3)
    assert len(small.table("Cars")) < len(large.table("Cars"))
    assert len(small_catalog().table("Cars")) <= len(large.table("Cars"))
