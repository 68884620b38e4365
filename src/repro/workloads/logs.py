"""The paper's evaluation query logs (Listings 1-7, Section 7).

Each workload is a named, ordered sequence of SQL queries over the synthetic
datasets in :mod:`repro.database.datasets`.  Date constants in the covid and
sales logs are adjusted to the synthetic data's date ranges so the queries
return non-empty results, which the visualization-interaction safety check
relies on; the *structure* of every query follows the paper exactly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """A named query log plus the interaction types it is expected to produce."""

    name: str
    description: str
    queries: tuple[str, ...]
    expected_interactions: tuple[str, ...] = ()
    expected_min_views: int = 1
    yi_categories: tuple[str, ...] = ()


# -- Listing 1: Explore -------------------------------------------------------

EXPLORE = Workload(
    name="explore",
    description="Pan/zoom over hp and mpg range predicates on the Cars table",
    queries=(
        "SELECT hp, mpg, origin FROM Cars "
        "WHERE hp BTWN 50 & 60 AND mpg BTWN 27 & 38",
        "SELECT hp, mpg, origin FROM Cars "
        "WHERE hp BTWN 60 & 90 AND mpg BTWN 16 & 30",
    ),
    expected_interactions=("pan", "zoom", "brush-xy"),
    expected_min_views=1,
    yi_categories=("explore", "abstract", "select"),
)

# -- Listing 2: Abstract (overview + detail) ------------------------------------

ABSTRACT = Workload(
    name="abstract",
    description="Overview-and-detail over the sp500 price history",
    queries=(
        "SELECT date, price FROM sp500",
        "SELECT date, price FROM sp500 "
        "WHERE date > '2001-01-01' AND date < '2003-01-01'",
        "SELECT date, price FROM sp500 "
        "WHERE date > '2001-02-01' AND date < '2003-02-01'",
    ),
    expected_interactions=("brush-x", "pan", "zoom"),
    expected_min_views=2,
    yi_categories=("abstract", "select"),
)

# -- Listing 3: Connect (linked selection) ----------------------------------------

CONNECT = Workload(
    name="connect",
    description="Linked selection between two Cars scatterplots",
    queries=(
        "SELECT hp, disp, id FROM Cars",
        "SELECT mpg, disp, id in (1, 2) as color FROM Cars",
        "SELECT mpg, disp, id in (20, 22) as color FROM Cars",
    ),
    expected_interactions=("click", "multi-click", "brush-x", "brush-xy"),
    expected_min_views=2,
    yi_categories=("connect", "select"),
)

# -- Listing 4: Filter (cross-filtering) --------------------------------------------

FILTER = Workload(
    name="filter",
    description="Cross-filtering between three flights histograms",
    queries=(
        "SELECT hour, count(*) FROM flights GROUP BY hour",
        "SELECT hour, count(*) FROM flights "
        "WHERE delay BTWN 0 & 50 AND dist BTWN 400 & 800 GROUP BY hour",
        "SELECT hour, count(*) FROM flights "
        "WHERE delay BTWN 10 & 60 AND dist BTWN 10 & 300 GROUP BY hour",
        "SELECT delay, count(*) FROM flights GROUP BY delay",
        "SELECT delay, count(*) FROM flights "
        "WHERE hour BTWN 10 & 16 AND dist BTWN 400 & 800 GROUP BY delay",
        "SELECT delay, count(*) FROM flights "
        "WHERE hour BTWN 15 & 20 AND dist BTWN 200 & 700 GROUP BY delay",
        "SELECT dist, count(*) FROM flights GROUP BY dist",
        "SELECT dist, count(*) FROM flights "
        "WHERE hour BTWN 10 & 16 AND delay BTWN 0 & 50 GROUP BY dist",
        "SELECT dist, count(*) FROM flights "
        "WHERE hour BTWN 8 & 19 AND delay BTWN 20 & 61 GROUP BY dist",
    ),
    expected_interactions=("brush-x", "click", "multi-click"),
    expected_min_views=3,
    yi_categories=("filter", "select"),
)

# -- Listing 5: SDSS case study -------------------------------------------------------

SDSS = Workload(
    name="sdss",
    description="SDSS sky-survey star selection: joined table plus location scatterplot",
    queries=(
        "SELECT DISTINCT gal.objID, gal.u, gal.g, gal.r, gal.i, gal.z, s.z, s.ra, s.dec "
        "FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.z BTWN 0.1362 & 0.141 "
        "AND s.ra BTWN 213.3 & 214.1 AND s.dec BTWN -0.9 & -0.2",
        "SELECT DISTINCT gal.objID, gal.u, gal.g, gal.r, gal.i, gal.z, s.z, s.ra, s.dec "
        "FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.z BTWN 0.1362 & 0.141 "
        "AND s.ra BTWN 213.4191 & 213.9 AND s.dec BTWN -0.565 & -0.3111",
        "SELECT DISTINCT gal.objID, gal.u, gal.g, gal.r, gal.i, gal.z, s.z, s.ra, s.dec "
        "FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.z BTWN 0.1362 & 0.141 "
        "AND s.ra BTWN 213.5 & 213.8 AND s.dec BTWN -0.34 & -0.2",
        "SELECT DISTINCT ra, dec FROM specObj "
        "WHERE ra BTWN 213.2 & 213.6 AND dec BTWN -0.3 & -0.1",
        "SELECT DISTINCT ra, dec FROM specObj "
        "WHERE ra BTWN 213 & 214 AND dec BTWN -0.8 & -0.4",
    ),
    expected_interactions=("pan", "zoom", "brush-xy"),
    expected_min_views=2,
    yi_categories=("explore", "select", "connect"),
)

# -- Listing 6: Covid case study ----------------------------------------------------------

COVID = Workload(
    name="covid",
    description="Reproduction of Google's covid-19 search-result visualization",
    queries=(
        "SELECT date, cases FROM covid WHERE state = 'CA'",
        "SELECT date, cases FROM covid "
        "WHERE state = 'WA' and date > date(today(), '-30 days')",
        "SELECT date, cases FROM covid "
        "WHERE state = 'CA' and date > date(today(), '-7 days')",
        "SELECT date, deaths FROM covid WHERE state = 'CA'",
        "SELECT date, deaths FROM covid WHERE state = 'NY'",
        "SELECT date, deaths FROM covid "
        "WHERE state = 'WA' and date > date(today(), '-14 days')",
        "SELECT date, deaths FROM covid "
        "WHERE state = 'WA' and date > date(today(), '-7 days')",
        "SELECT date, deaths FROM covid "
        "WHERE state = 'NY' and date > date(today(), '-7 days')",
    ),
    expected_interactions=(),
    expected_min_views=1,
    yi_categories=("filter", "select", "abstract"),
)

# -- Listing 7: Sales dashboard case study ----------------------------------------------------

SALES = Workload(
    name="sales",
    description="Supermarket sales analysis dashboard with nested HAVING queries",
    queries=(
        "SELECT city, product, sum(total) FROM sales as ss "
        "GROUP BY city, product "
        "HAVING sum(total) >= (SELECT max(t) FROM "
        "(SELECT sum(total) as t FROM sales as s WHERE s.city = ss.city "
        "GROUP BY s.city, s.product))",
        "SELECT city, product, sum(total) FROM sales as ss "
        "WHERE ss.date BTWN '2019-01-25' & '2019-02-15' "
        "GROUP BY city, product "
        "HAVING sum(total) >= (SELECT max(t) FROM "
        "(SELECT sum(total) as t FROM sales as s WHERE s.city = ss.city "
        "AND s.date BTWN '2019-01-25' & '2019-02-15' "
        "GROUP BY s.city, s.product))",
        "SELECT city, product, sum(total) FROM sales as ss "
        "WHERE ss.date BTWN '2019-02-01' & '2019-03-10' "
        "GROUP BY city, product "
        "HAVING sum(total) >= (SELECT max(t) FROM "
        "(SELECT sum(total) as t FROM sales as s WHERE s.city = ss.city "
        "AND s.date BTWN '2019-02-01' & '2019-03-10' "
        "GROUP BY s.city, s.product))",
        "SELECT date, sum(total) FROM sales "
        "WHERE branch = 'A' AND product = 'Health and beauty' GROUP BY date",
        "SELECT date, sum(total) FROM sales "
        "WHERE branch = 'B' AND product = 'Electronics' GROUP BY date",
        "SELECT date, sum(total) FROM sales "
        "WHERE branch = 'C' AND product = 'Lifestyle' GROUP BY date",
    ),
    expected_interactions=(),
    expected_min_views=2,
    yi_categories=("filter", "select"),
)

#: All workloads, keyed by name (the seven logs of Section 7.3).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (EXPLORE, ABSTRACT, CONNECT, FILTER, SDSS, COVID, SALES)
}


def get_workload(name: str) -> Workload:
    """Look up a workload by name (raises KeyError with the valid names)."""
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        )
    return WORKLOADS[name]


def workload_names() -> list[str]:
    return sorted(WORKLOADS)
