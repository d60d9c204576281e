"""
How many worlds by now?
=======================

Take one branching opportunity per elementary time step over the age of
the universe. A linear tally gives about 10^61 worlds; letting the count
compound each step gives 10^(10^60.5). The honest answer is a bracket
spanning those two models, so everything is reported in (iterated) log10.
"""

from manyworlds import world_count

linear = world_count(growth_model="linear")
expo = world_count(growth_model="exponential")

print(f"age of universe / elementary step = 10^{linear.log10_ratio:.2f}")
print(f"linear model:      N = 10^{linear.log10_worlds:.2f}")
print(f"exponential model: N = 10^(10^{expo.log10_log10_worlds:.2f})")

# The estimate only shifts logarithmically with the assumed constants.
younger = world_count(universe_age_s=1.0e17)
print(f"\nwith a universe 4x younger: N = 10^{younger.log10_worlds:.2f} (linear)")
