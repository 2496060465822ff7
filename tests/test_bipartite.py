import random

from wefhouse.bipartite import maximum_matching


def maximum_matching_recursive(neighbors, house_count):
    """The recursive augmenting-path search `maximum_matching` replaces."""
    match_agent = [None] * len(neighbors)
    match_house = [None] * house_count

    def try_augment(agent, visited):
        for house in neighbors[agent]:
            if house in visited:
                continue
            visited.add(house)
            owner = match_house[house]
            if owner is None or try_augment(owner, visited):
                match_house[house] = agent
                match_agent[agent] = house
                return True
        return False

    for agent in range(len(neighbors)):
        try_augment(agent, set())
    return match_agent


class TestMaximumMatching:
    def test_long_chain_needs_no_recursion(self):
        # agent 0 likes house 0, agent i houses i-1 and i: agent i first
        # tries house i-1, which sends the search down the whole chain to
        # agent 0 before agent i settles on house i
        n = 1200
        neighbors = [(0,)] + [(i - 1, i) for i in range(1, n)]
        assert maximum_matching(neighbors, n) == list(range(n))

    def test_equals_recursive_search_on_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(400):
            agents, houses = rng.randint(0, 40), rng.randint(1, 40)
            density = rng.random()
            neighbors = [
                tuple(rng.sample(range(houses), sum(rng.random() < density for _ in range(houses))))
                for _ in range(agents)
            ]
            assert maximum_matching(neighbors, houses) == maximum_matching_recursive(
                neighbors, houses
            )
