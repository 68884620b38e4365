"""Deterministic synthetic datasets matching the paper's evaluation workloads.

The paper evaluates PI2 over the Cars dataset, a flights table, the S&P 500
price history, a covid cases/deaths table, the Kaggle supermarket-sales
dataset and two SDSS tables (``galaxy`` and ``specObj``).  None of these is
redistributable in an offline environment, so this module generates synthetic
tables with the **same schemas, attribute domains and cardinalities**; the
interface-generation search only depends on those properties (schemas,
domains, functional dependencies and result shapes), not on the exact values.

All generators are deterministic (seeded :class:`random.Random`) so tests and
benchmarks are reproducible.
"""

from __future__ import annotations

import datetime as _dt
import math
import random

from .catalog import Catalog
from .functions import TODAY
from .table import Table
from .types import Column, DataType

_DEFAULT_SEED = 7


# ---------------------------------------------------------------------------
# individual tables
# ---------------------------------------------------------------------------


def make_t_table(rows: int = 60, seed: int = _DEFAULT_SEED) -> Table:
    """The toy table ``T(p, a, b)`` used by the paper's Section 2 examples."""
    rng = random.Random(seed)
    table = Table(
        "T",
        [
            Column("p", DataType.INT),
            Column("a", DataType.INT),
            Column("b", DataType.INT),
        ],
    )
    for _ in range(rows):
        table.insert((rng.randint(1, 8), rng.randint(1, 5), rng.randint(1, 5)))
    return table


def make_cars_table(rows: int = 200, seed: int = _DEFAULT_SEED) -> Table:
    """Synthetic Cars table: id, hp, mpg, disp, origin (categorical)."""
    rng = random.Random(seed + 1)
    origins = ["USA", "Europe", "Japan"]
    table = Table(
        "Cars",
        [
            Column("id", DataType.INT, primary_key=True),
            Column("hp", DataType.INT),
            Column("mpg", DataType.FLOAT),
            Column("disp", DataType.FLOAT),
            Column("origin", DataType.STR),
        ],
    )
    for i in range(1, rows + 1):
        origin = origins[i % 3]
        hp = rng.randint(45, 230)
        # mpg is negatively correlated with horsepower, like the real dataset
        mpg = round(max(9.0, 46.0 - hp * 0.15 + rng.gauss(0, 3.0)), 1)
        disp = round(hp * 1.9 + rng.gauss(0, 25.0), 1)
        table.insert((i, hp, mpg, disp, origin))
    return table


def make_flights_table(rows: int = 1500, seed: int = _DEFAULT_SEED) -> Table:
    """Synthetic flights table: id, hour, delay, dist."""
    rng = random.Random(seed + 2)
    table = Table(
        "flights",
        [
            Column("id", DataType.INT, primary_key=True),
            Column("hour", DataType.INT),
            Column("delay", DataType.INT),
            Column("dist", DataType.INT),
        ],
    )
    for i in range(1, rows + 1):
        hour = rng.randint(0, 23)
        delay = max(-10, int(rng.gauss(15 + (hour - 12) ** 2 / 12.0, 20)))
        dist = rng.choice([100, 200, 300, 450, 600, 800, 1000, 1500, 2000, 2500])
        dist += rng.randint(-50, 50)
        table.insert((i, hour, delay, dist))
    return table


def make_sp500_table(days: int = 730, seed: int = _DEFAULT_SEED) -> Table:
    """Synthetic S&P 500 price history: date, price (random walk).

    The series always spans 2000-06-01 … 2003-06-01 regardless of how many
    rows are generated (smaller tables sample the range more sparsely), so the
    Abstract workload's date predicates select non-empty subsets at any scale.
    """
    rng = random.Random(seed + 3)
    table = Table(
        "sp500",
        [Column("date", DataType.DATE), Column("price", DataType.FLOAT)],
    )
    start = _dt.date(2000, 6, 1)
    span_days = 1095  # three years
    step = max(1, span_days // max(1, days))
    price = 1450.0
    for i in range(days):
        day = start + _dt.timedelta(days=min(span_days, i * step))
        price = max(600.0, price * (1.0 + rng.gauss(0.0002, 0.012) * step ** 0.5))
        table.insert((day.isoformat(), round(price, 2)))
    return table


def make_covid_table(days: int = 180, seed: int = _DEFAULT_SEED) -> Table:
    """Synthetic covid table: date, state, cases, deaths for four US states."""
    rng = random.Random(seed + 4)
    states = ["CA", "WA", "NY", "TX"]
    base = {"CA": 6000, "WA": 1200, "NY": 4000, "TX": 3500}
    table = Table(
        "covid",
        [
            Column("date", DataType.DATE),
            Column("state", DataType.STR),
            Column("cases", DataType.INT),
            Column("deaths", DataType.INT),
        ],
    )
    start = TODAY - _dt.timedelta(days=days - 1)
    for i in range(days):
        day = start + _dt.timedelta(days=i)
        wave = 1.0 + 0.6 * math.sin(i / 23.0)
        for state in states:
            cases = max(0, int(base[state] * wave + rng.gauss(0, base[state] * 0.08)))
            deaths = max(0, int(cases * 0.013 + rng.gauss(0, 4)))
            table.insert((day.isoformat(), state, cases, deaths))
    return table


def make_sales_table(rows: int = 600, seed: int = _DEFAULT_SEED) -> Table:
    """Synthetic Kaggle supermarket-sales table.

    Schema follows the Kaggle dataset the paper uses: invoice id, date,
    branch (A/B/C), city, product line, and the invoice total.
    """
    rng = random.Random(seed + 5)
    branches = ["A", "B", "C"]
    cities = {"A": "Yangon", "B": "Mandalay", "C": "Naypyitaw"}
    products = [
        "Health and beauty",
        "Electronics",
        "Lifestyle",
        "Food and beverages",
        "Sports and travel",
        "Home and lifestyle",
    ]
    table = Table(
        "sales",
        [
            Column("invoice", DataType.INT, primary_key=True),
            Column("date", DataType.DATE),
            Column("branch", DataType.STR),
            Column("city", DataType.STR),
            Column("product", DataType.STR),
            Column("total", DataType.FLOAT),
        ],
    )
    start = _dt.date(2019, 1, 1)
    for i in range(1, rows + 1):
        branch = rng.choice(branches)
        day = start + _dt.timedelta(days=rng.randint(0, 89))
        product = rng.choice(products)
        total = round(rng.uniform(15.0, 1050.0), 2)
        table.insert((i, day.isoformat(), branch, cities[branch], product, total))
    return table


def make_sdss_tables(
    rows: int = 240, seed: int = _DEFAULT_SEED
) -> tuple[Table, Table]:
    """Synthetic SDSS ``galaxy`` and ``specObj`` tables.

    Domains follow the paper's Listing 5: right ascension around 213-214,
    declination around -1..0, redshift ``z`` around 0.13-0.15, and the
    ``u,g,r,i,z`` magnitude bands.
    """
    rng = random.Random(seed + 6)
    galaxy = Table(
        "galaxy",
        [
            Column("objID", DataType.INT, primary_key=True),
            Column("u", DataType.FLOAT),
            Column("g", DataType.FLOAT),
            Column("r", DataType.FLOAT),
            Column("i", DataType.FLOAT),
            Column("z", DataType.FLOAT),
        ],
    )
    spec = Table(
        "specObj",
        [
            Column("specObjID", DataType.INT, primary_key=True),
            Column("bestObjID", DataType.INT),
            Column("z", DataType.FLOAT),
            Column("ra", DataType.FLOAT),
            Column("dec", DataType.FLOAT),
        ],
    )
    for i in range(1, rows + 1):
        u = round(rng.uniform(16.0, 22.0), 3)
        galaxy.insert(
            (
                i,
                u,
                round(u - rng.uniform(0.5, 1.5), 3),
                round(u - rng.uniform(1.0, 2.5), 3),
                round(u - rng.uniform(1.5, 3.0), 3),
                round(u - rng.uniform(2.0, 3.5), 3),
            )
        )
        spec.insert(
            (
                10_000 + i,
                i,
                round(rng.uniform(0.130, 0.150), 4),
                round(rng.uniform(213.0, 214.2), 4),
                round(rng.uniform(-1.0, 0.0), 4),
            )
        )
    return galaxy, spec


# ---------------------------------------------------------------------------
# catalog assembly
# ---------------------------------------------------------------------------


def standard_catalog(
    seed: int = _DEFAULT_SEED, scale: float = 1.0
) -> Catalog:
    """Build a catalogue containing every table the paper's workloads touch.

    ``scale`` multiplies the default row counts (used by scalability
    experiments to grow or shrink the data volume).
    """

    def n(base: int) -> int:
        return max(10, int(base * scale))

    galaxy, spec = make_sdss_tables(rows=n(240), seed=seed)
    return Catalog(
        [
            make_t_table(rows=n(60), seed=seed),
            make_cars_table(rows=n(200), seed=seed),
            make_flights_table(rows=n(1500), seed=seed),
            make_sp500_table(days=n(730), seed=seed),
            make_covid_table(days=n(180), seed=seed),
            make_sales_table(rows=n(600), seed=seed),
            galaxy,
            spec,
        ]
    )


def small_catalog(seed: int = _DEFAULT_SEED) -> Catalog:
    """A reduced-size catalogue for fast unit tests."""
    return standard_catalog(seed=seed, scale=0.15)
