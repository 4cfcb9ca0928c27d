"""Synthetic web workload: domain rankings, PKI population, browsing.

Substitutes the paper's live inputs (Tranco list crawls, real user
browsing) with calibrated generative models:

* :mod:`repro.webmodel.tranco` — a ranked domain universe with Zipf
  popularity (the Tranco Top-1M stand-in);
* :mod:`repro.webmodel.chains` — the chain-size mixes of Table 2;
* :mod:`repro.webmodel.population` — a 1400-ICA universe (the CCADB
  preload count) with head-heavy popularity such that a top-10K crawl
  observes the paper's 220-245 distinct ICAs;
* :mod:`repro.webmodel.crawler` — the monthly top-10K crawl (Table 2);
* :mod:`repro.webmodel.flight_probe` — exact ClientHello and server-flight
  sizes, measured by one real handshake per chain shape;
* :mod:`repro.webmodel.cohort` — the columnar cohort engine behind Fig. 5
  (one user per browsing session, at any scale), whose destination stream
  stands in for the Burklen et al. user model the paper cites.
"""

from repro.webmodel.tranco import DomainRanking
from repro.webmodel.chains import ChainMix, TABLE2_MONTHS, table2_mix
from repro.webmodel.population import ICAPopulation, PopulationConfig
from repro.webmodel.crawler import CrawlStats, crawl_top_domains
from repro.webmodel.churn import ChurnConfig, ChurnResult, StepMetrics
from repro.webmodel.nonweb import (
    ScenarioConfig,
    ScenarioResult,
    simulate_scenario,
    compare_environments,
    WEB_BROWSING,
    MOBILE_APP,
    IOT_FLEET,
)

__all__ = [
    "DomainRanking",
    "ChainMix",
    "TABLE2_MONTHS",
    "table2_mix",
    "ICAPopulation",
    "PopulationConfig",
    "CrawlStats",
    "crawl_top_domains",
    "ChurnConfig",
    "ChurnResult",
    "StepMetrics",
    "ScenarioConfig",
    "ScenarioResult",
    "simulate_scenario",
    "compare_environments",
    "WEB_BROWSING",
    "MOBILE_APP",
    "IOT_FLEET",
]
