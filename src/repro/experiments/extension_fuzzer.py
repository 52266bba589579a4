"""Extension: automated pattern discovery (Blacksmith-style fuzzing).

Mechanizes the paper's motivation — "new attack patterns continue to
break existing mitigations" — by letting a random-search fuzzer discover
breaking patterns against the mitigation zoo without being told about
TRRespass or Half-Double.
"""

from repro.experiments.reporting import print_banner
from repro.rowhammer.fuzzer import PatternFuzzer
from repro.rowhammer.mitigations import GrapheneMitigation, TRRMitigation

#: Threshold, budget (Graphene is sized for both) and trials per search;
#: ``quick`` is ``smoke``, as ``paper`` takes most of a minute.
SCALES = {
    "smoke": dict(rh_threshold=100, budget=20_000, trr_trials=5, graphene_trials=5),
    "quick": dict(rh_threshold=100, budget=20_000, trr_trials=5, graphene_trials=5),
    "paper": dict(rh_threshold=600, budget=120_000, trr_trials=20, graphene_trials=30),
}

CLAIMS = {
    "Fuzzing finds a pattern that breaks TRR (Figure 1b, Case 2)":
        lambda searches: searches["trr"].found_breakthrough,
    "Fuzzing finds a pattern that breaks Graphene (Figure 1b, Case 1)":
        lambda searches: searches["graphene"].found_breakthrough,
}


def run(rh_threshold: int, budget: int, trr_trials: int, graphene_trials: int) -> dict:
    """The search against TRR and the search against Graphene, by name."""
    def search(mitigation_factory, trials):
        fuzzer = PatternFuzzer(mitigation_factory, rh_threshold=rh_threshold, budget=budget, seed=5)
        return fuzzer.search(trials)

    return {
        "trr": search(lambda: TRRMitigation(4), trr_trials),
        "graphene": search(lambda: GrapheneMitigation(rh_threshold, budget), graphene_trials),
    }


def report(searches: dict) -> None:
    print_banner("Extension: fuzzing for mitigation-breaking patterns")
    trr, graphene = searches["trr"], searches["graphene"]
    print(
        f"Fuzzer vs TRR: best={trr.best_flips} flips, first breakthrough "
        f"at trial {trr.trials_to_first_break}"
    )
    if trr.best_genome:
        print(f"  winning genome: {trr.best_genome}")
    print(
        f"Fuzzer vs Graphene: best={graphene.best_flips} flips, first at "
        f"trial {graphene.trials_to_first_break}"
    )
