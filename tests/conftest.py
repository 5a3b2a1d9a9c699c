from hypothesis import Phase, settings

settings.register_profile("suite", deadline=None)
# For tools/mutants.py: a failing draw is enough to kill a mutant, so it is
# not shrunk, and the mutants' failures stay out of the example database.
settings.register_profile(
    "mutants", deadline=None, database=None, phases=(Phase.explicit, Phase.generate)
)
settings.load_profile("suite")
