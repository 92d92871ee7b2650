"""Preset synthetic datasets standing in for DBpedia, Freebase and YAGO2.

Each preset mirrors the flavour of the paper's evaluation workload (Table
IV): the DBpedia-like KG carries the automotive queries (Q1-Q3, Q10), the
Freebase-like KG the language/movie queries (Q5, Q6), and the YAGO2-like
KG museums, cities and soccer (Q7-Q9).  Entity counts are scaled down by
orders of magnitude — the algorithms only ever operate on n-bounded
neighbourhoods, so a scaled hub exercises identical code paths (see
DESIGN.md, substitution table).

``scale`` multiplies every population count; 1.0 gives a KG of a few
thousand nodes per dataset.
"""

from __future__ import annotations

import math

from repro.datasets.spec import (
    AttributeSpec,
    ChainSpec,
    DatasetSpec,
    EdgeStep,
    HubSpec,
    NoiseSpec,
    OverlapSpec,
    PathSchema,
)


def _scaled(count: int, scale: float) -> int:
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    return max(1, int(math.ceil(count * scale)))


def dbpedia_like_spec(seed: int = 0, scale: float = 1.0) -> DatasetSpec:
    """Automotive-flavoured KG: Germany's cars, clubs, designers."""
    germany_cars = HubSpec(
        key="germany_cars",
        hub_name="Germany",
        hub_types=("Country",),
        target_type="Automobile",
        canonical_predicate="product",
        num_correct=_scaled(160, scale),
        correct_schemas=(
            PathSchema("direct_product", (EdgeStep("product", 1.0),), weight=0.62),
            PathSchema("direct_assembly", (EdgeStep("assembly", 0.98),), weight=0.12),
            PathSchema(
                "via_company",
                (
                    EdgeStep("assembly", 0.98, next_type="Company", pool=12),
                    EdgeStep("country", 0.81),
                ),
                weight=0.10,
            ),
            PathSchema(
                "direct_manufacturer", (EdgeStep("manufacturer", 0.95),), weight=0.08
            ),
            PathSchema("direct_producedBy", (EdgeStep("producedBy", 0.87),), weight=0.05),
            PathSchema("direct_origin", (EdgeStep("origin", 0.82),), weight=0.03),
        ),
        num_near_miss=_scaled(70, scale),
        near_miss_schemas=(
            PathSchema(
                "via_designer",
                (
                    EdgeStep("designer", 0.45, next_type="Person", pool=8),
                    EdgeStep("nationality", 0.52),
                ),
                weight=0.25,
            ),
            PathSchema("direct_importedTo", (EdgeStep("importedTo", 0.72),), weight=0.35),
            PathSchema(
                "via_dealer",
                (
                    EdgeStep("soldBy", 0.60, next_type="Dealer", pool=6),
                    EdgeStep("dealerIn", 0.75),
                ),
                weight=0.30,
            ),
            PathSchema("direct_carRelation", (EdgeStep("carRelation", 0.30),), weight=0.10),
        ),
        attributes=(
            AttributeSpec("price", "lognormal", (42_000.0, 0.35), scale_by_schema=0.12),
            AttributeSpec("fuel_economy", "uniform", (22.0, 40.0)),
            AttributeSpec("horsepower", "normal", (250.0, 60.0), scale_by_schema=0.08),
            AttributeSpec("body_style_code", "integers", (1.0, 6.0)),
        ),
        chain=ChainSpec(
            predicates=("nationality", "design"),
            intermediate_type="Person",
            num_intermediates=_scaled(12, scale),
            fanout=6,
            synonyms=(("citizenOf", 0.93), ("designedBy", 0.95)),
            synonym_share=0.2,
        ),
    )
    berlin_clubs = HubSpec(
        key="berlin_clubs",
        hub_name="Berlin",
        hub_types=("City",),
        target_type="SoccerClub",
        canonical_predicate="basedIn",
        num_correct=_scaled(60, scale),
        correct_schemas=(
            PathSchema("direct_basedIn", (EdgeStep("basedIn", 1.0),), weight=0.70),
            PathSchema("direct_homeCity", (EdgeStep("homeCity", 0.96),), weight=0.20),
            PathSchema(
                "via_district",
                (
                    EdgeStep("stadiumIn", 0.90, next_type="District", pool=6),
                    EdgeStep("districtOf", 0.88),
                ),
                weight=0.10,
            ),
        ),
        num_near_miss=_scaled(18, scale),
        near_miss_schemas=(
            PathSchema("direct_playedMatchIn", (EdgeStep("playedMatchIn", 0.48),), weight=1.0),
        ),
        attributes=(
            AttributeSpec("members", "lognormal", (8_000.0, 0.6)),
            AttributeSpec("founded", "integers", (1890.0, 2005.0)),
        ),
    )
    bavaria_cars = HubSpec(
        key="bavaria_cars",
        hub_name="Bavaria",
        hub_types=("Region",),
        target_type="Automobile",
        canonical_predicate="registeredIn",
        num_correct=_scaled(70, scale),
        correct_schemas=(
            PathSchema("direct_registeredIn", (EdgeStep("registeredIn", 1.0),), weight=0.75),
            PathSchema("direct_homologatedIn", (EdgeStep("homologatedIn", 0.94),), weight=0.25),
        ),
        num_near_miss=_scaled(15, scale),
        near_miss_schemas=(
            PathSchema("direct_displayedIn", (EdgeStep("displayedIn", 0.42),), weight=1.0),
        ),
        attributes=(
            AttributeSpec("price", "lognormal", (39_000.0, 0.30), scale_by_schema=0.10),
            AttributeSpec("fuel_economy", "uniform", (20.0, 38.0)),
        ),
        chain=ChainSpec(
            predicates=("regionalClub", "sponsoredCar"),
            intermediate_type="SoccerClub",
            num_intermediates=_scaled(8, scale),
            fanout=5,
        ),
    )
    return DatasetSpec(
        name="dbpedia-like",
        hubs=(germany_cars, berlin_clubs, bavaria_cars),
        overlaps=(
            # cycle: cars produced in Germany AND registered in Bavaria
            OverlapSpec(("germany_cars", "bavaria_cars"), _scaled(30, scale)),
            # star: produced in Germany + registered in Bavaria + designed
            # by a German designer (chain) — three components, one chain
            OverlapSpec(
                ("germany_cars", "bavaria_cars", "germany_cars"),
                _scaled(16, scale),
                kinds=("simple", "simple", "chain"),
            ),
            # flower: both chains plus a simple component
            OverlapSpec(
                ("germany_cars", "bavaria_cars", "germany_cars"),
                _scaled(12, scale),
                kinds=("chain", "chain", "simple"),
            ),
        ),
        noise=NoiseSpec(
            num_nodes=_scaled(900, scale),
            distractors_per_hub=_scaled(22, scale),
        ),
        seed=seed,
    )


def freebase_like_spec(seed: int = 0, scale: float = 1.0) -> DatasetSpec:
    """Languages and movies: the WebQuestions-flavoured workload."""
    nigeria_languages = HubSpec(
        key="nigeria_languages",
        hub_name="Nigeria",
        hub_types=("Country",),
        target_type="Language",
        canonical_predicate="spokenIn",
        num_correct=_scaled(120, scale),
        correct_schemas=(
            PathSchema("direct_spokenIn", (EdgeStep("spokenIn", 1.0),), weight=0.78),
            PathSchema("direct_official", (EdgeStep("officialLanguage", 0.93),), weight=0.12),
            PathSchema(
                "via_region",
                (
                    EdgeStep("usedIn", 0.90, next_type="Region", pool=8),
                    EdgeStep("partOf", 0.86),
                ),
                weight=0.10,
            ),
        ),
        num_near_miss=_scaled(50, scale),
        near_miss_schemas=(
            PathSchema("direct_mentionedIn", (EdgeStep("mentionedIn", 0.40),), weight=0.35),
            PathSchema("direct_studiedIn", (EdgeStep("studiedIn", 0.68),), weight=0.65),
        ),
        attributes=(AttributeSpec("speakers", "lognormal", (900_000.0, 1.1)),),
    )
    spielberg_movies = HubSpec(
        key="spielberg_movies",
        hub_name="Steven_Spielberg",
        hub_types=("Person",),
        target_type="Film",
        canonical_predicate="director",
        num_correct=_scaled(48, scale),
        correct_schemas=(
            PathSchema("direct_director", (EdgeStep("director", 1.0),), weight=0.70),
            PathSchema("direct_directedBy", (EdgeStep("directedBy", 0.97),), weight=0.15),
            PathSchema(
                "via_production",
                (
                    EdgeStep("filmedBy", 0.92, next_type="Studio", pool=5),
                    EdgeStep("founder", 0.88),
                ),
                weight=0.15,
            ),
        ),
        num_near_miss=_scaled(35, scale),
        near_miss_schemas=(
            PathSchema("direct_cameo", (EdgeStep("cameoIn", 0.45),), weight=0.35),
            PathSchema("direct_produced", (EdgeStep("producerOf", 0.74),), weight=0.65),
        ),
        attributes=(
            AttributeSpec("box_office", "lognormal", (80_000_000.0, 1.0), scale_by_schema=0.15),
            AttributeSpec("rating", "uniform", (5.0, 9.3)),
            AttributeSpec("year", "integers", (1975.0, 2015.0)),
        ),
        chain=ChainSpec(
            predicates=("collaborator", "directed"),
            intermediate_type="Person",
            num_intermediates=_scaled(10, scale),
            fanout=4,
            synonyms=(("workedWith", 0.94), ("helmed", 0.95)),
        ),
    )
    universal_movies = HubSpec(
        key="universal_movies",
        hub_name="Universal_Pictures",
        hub_types=("Company",),
        target_type="Film",
        canonical_predicate="distributor",
        num_correct=_scaled(75, scale),
        correct_schemas=(
            PathSchema("direct_distributor", (EdgeStep("distributor", 1.0),), weight=0.8),
            PathSchema("direct_releasedBy", (EdgeStep("releasedBy", 0.95),), weight=0.2),
        ),
        num_near_miss=_scaled(45, scale),
        near_miss_schemas=(
            PathSchema("direct_licensed", (EdgeStep("licensedTo", 0.5),), weight=0.4),
            PathSchema("direct_coproduced", (EdgeStep("coproducedBy", 0.70),), weight=0.6),
        ),
        attributes=(
            AttributeSpec("box_office", "lognormal", (55_000_000.0, 0.9), scale_by_schema=0.1),
            AttributeSpec("year", "integers", (1970.0, 2020.0)),
        ),
        chain=ChainSpec(
            predicates=("subsidiary", "produced"),
            intermediate_type="Company",
            num_intermediates=_scaled(8, scale),
            fanout=5,
        ),
    )
    return DatasetSpec(
        name="freebase-like",
        hubs=(nigeria_languages, spielberg_movies, universal_movies),
        overlaps=(
            OverlapSpec(("spielberg_movies", "universal_movies"), _scaled(22, scale)),
            OverlapSpec(
                ("spielberg_movies", "universal_movies", "spielberg_movies"),
                _scaled(14, scale),
                kinds=("simple", "simple", "chain"),
            ),
            OverlapSpec(
                ("spielberg_movies", "universal_movies", "universal_movies"),
                _scaled(10, scale),
                kinds=("chain", "chain", "simple"),
            ),
        ),
        noise=NoiseSpec(
            num_nodes=_scaled(950, scale),
            distractors_per_hub=_scaled(20, scale),
        ),
        seed=seed,
    )


def yago_like_spec(seed: int = 0, scale: float = 1.0) -> DatasetSpec:
    """Museums, cities and soccer: the synthetic-query workload."""
    england_museums = HubSpec(
        key="england_museums",
        hub_name="England",
        hub_types=("Country",),
        target_type="Museum",
        canonical_predicate="locatedIn",
        num_correct=_scaled(95, scale),
        correct_schemas=(
            PathSchema("direct_locatedIn", (EdgeStep("locatedIn", 1.0),), weight=0.66),
            PathSchema("direct_situatedIn", (EdgeStep("situatedIn", 0.97),), weight=0.14),
            PathSchema(
                "via_city",
                (
                    EdgeStep("inCity", 0.95, next_type="City", pool=10),
                    EdgeStep("cityIn", 0.90),
                ),
                weight=0.20,
            ),
        ),
        num_near_miss=_scaled(55, scale),
        near_miss_schemas=(
            PathSchema("direct_exhibitsFrom", (EdgeStep("exhibitsFrom", 0.44),), weight=0.35),
            PathSchema("direct_touredIn", (EdgeStep("touredIn", 0.70),), weight=0.65),
        ),
        attributes=(AttributeSpec("visitors", "lognormal", (250_000.0, 0.9)),),
    )
    china_cities = HubSpec(
        key="china_cities",
        hub_name="China",
        hub_types=("Country",),
        target_type="City",
        canonical_predicate="country",
        num_correct=_scaled(110, scale),
        correct_schemas=(
            PathSchema("direct_country", (EdgeStep("country", 1.0),), weight=0.70),
            PathSchema(
                "via_province",
                (
                    EdgeStep("provinceOf", 0.94, next_type="Province", pool=12),
                    EdgeStep("federalState", 0.89),
                ),
                weight=0.30,
            ),
        ),
        num_near_miss=_scaled(55, scale),
        near_miss_schemas=(
            PathSchema("direct_twinnedWith", (EdgeStep("twinnedWith", 0.38),), weight=0.4),
            PathSchema("direct_tradeHub", (EdgeStep("tradeHubOf", 0.68),), weight=0.6),
        ),
        attributes=(
            AttributeSpec("population", "lognormal", (400_000.0, 0.8), scale_by_schema=0.1),
            AttributeSpec("area", "lognormal", (150.0, 0.5)),
        ),
    )
    spain_players = HubSpec(
        key="spain_players",
        hub_name="Spain",
        hub_types=("Country",),
        target_type="SoccerPlayer",
        canonical_predicate="bornIn",
        num_correct=_scaled(130, scale),
        correct_schemas=(
            PathSchema("direct_bornIn", (EdgeStep("bornIn", 1.0),), weight=0.72),
            PathSchema("direct_nativeOf", (EdgeStep("nativeOf", 0.96),), weight=0.12),
            PathSchema(
                "via_birthCity",
                (
                    EdgeStep("birthCity", 0.95, next_type="City", pool=14),
                    EdgeStep("inCountry", 0.88),
                ),
                weight=0.16,
            ),
        ),
        num_near_miss=_scaled(75, scale),
        near_miss_schemas=(
            PathSchema("direct_residentOf", (EdgeStep("residentOf", 0.66),), weight=0.65),
            PathSchema("direct_fanOf", (EdgeStep("fanbaseIn", 0.35),), weight=0.35),
        ),
        attributes=(
            AttributeSpec("age", "integers", (17.0, 39.0)),
            AttributeSpec("transfer_value", "lognormal", (6_000_000.0, 1.0), scale_by_schema=0.12),
        ),
        chain=ChainSpec(
            predicates=("league", "playerIn"),
            intermediate_type="League",
            num_intermediates=_scaled(6, scale),
            fanout=8,
        ),
    )
    barcelona_players = HubSpec(
        key="barcelona_players",
        hub_name="FC_Barcelona",
        hub_types=("SoccerClub",),
        target_type="SoccerPlayer",
        canonical_predicate="playsFor",
        num_correct=_scaled(55, scale),
        correct_schemas=(
            PathSchema("direct_playsFor", (EdgeStep("playsFor", 1.0),), weight=0.78),
            PathSchema("direct_squadMember", (EdgeStep("squadMember", 0.96),), weight=0.22),
        ),
        num_near_miss=_scaled(40, scale),
        near_miss_schemas=(
            PathSchema("direct_trialAt", (EdgeStep("trialAt", 0.52),), weight=0.45),
            PathSchema("direct_loaned", (EdgeStep("loanedTo", 0.68),), weight=0.55),
        ),
        attributes=(
            AttributeSpec("age", "integers", (17.0, 38.0)),
            AttributeSpec("transfer_value", "lognormal", (9_000_000.0, 0.9)),
        ),
        chain=ChainSpec(
            predicates=("academy", "trained"),
            intermediate_type="Academy",
            num_intermediates=_scaled(5, scale),
            fanout=7,
        ),
    )
    return DatasetSpec(
        name="yago2-like",
        hubs=(england_museums, china_cities, spain_players, barcelona_players),
        overlaps=(
            # cycle: born in Spain AND plays for Barcelona (paper Q9)
            OverlapSpec(("spain_players", "barcelona_players"), _scaled(25, scale)),
            OverlapSpec(
                ("spain_players", "barcelona_players", "spain_players"),
                _scaled(15, scale),
                kinds=("simple", "simple", "chain"),
            ),
            OverlapSpec(
                ("spain_players", "barcelona_players", "barcelona_players"),
                _scaled(10, scale),
                kinds=("chain", "chain", "simple"),
            ),
        ),
        noise=NoiseSpec(
            num_nodes=_scaled(1000, scale),
            distractors_per_hub=_scaled(24, scale),
        ),
        seed=seed,
    )
