package la

// The standalone forms of the scratch-backed orderings, each on a fresh
// scratch, for FuzzSymbolicMatchesReference.

func symmetrizedAdjacency(a *CSR) adjacency { return new(scratch).adjacency(a) }

func mdOrder(adj adjacency) []int { return new(scratch).mdOrder(adj, nil) }
