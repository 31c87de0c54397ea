package classical

import (
	"math/bits"
	"sort"
)

// SubsetSumBrute searches all 2^n subsets for one summing to target and
// returns the selector mask and whether one exists — the exponential-in-n
// direct protocol.
func SubsetSumBrute(values []uint64, target uint64) (mask uint64, ok bool) {
	n := len(values)
	if n > 63 {
		panic("classical: brute force limited to 63 elements")
	}
	for m := uint64(1); m < 1<<uint(n); m++ {
		var sum uint64
		for j := 0; j < n; j++ {
			if m&(1<<uint(j)) != 0 {
				sum += values[j]
			}
		}
		if sum == target {
			return m, true
		}
	}
	return 0, false
}

// SubsetSumDP solves subset-sum by dynamic programming over sums, the
// pseudo-polynomial O(n·Σvalues) direct protocol (exponential in the
// precision p since Σvalues ~ n·2^p). Its tables take 17 bytes per sum
// up to target; a target above Σvalues is answered without them.
func SubsetSumDP(values []uint64, target uint64) (mask uint64, ok bool) {
	if target == 0 {
		return 0, false // the paper's NP-hard version wants a non-empty subset
	}
	// Subtract rather than sum, so a large total cannot overflow.
	rem := target
	for _, v := range values {
		if v >= rem {
			rem = 0
			break
		}
		rem -= v
	}
	if rem > 0 {
		return 0, false // Σvalues < target
	}
	// from[s] = index of the value that first reached sum s, plus one.
	from := make([]int, target+1)
	reach := make([]bool, target+1)
	reach[0] = true
	prev := make([]uint64, target+1)
	for j, v := range values {
		if v == 0 || v > target {
			continue
		}
		for s := target; s >= v; s-- {
			if !reach[s] && reach[s-v] {
				reach[s] = true
				from[s] = j + 1
				prev[s] = s - v
			}
		}
	}
	if !reach[target] {
		return 0, false
	}
	for s := target; s != 0; {
		j := from[s] - 1
		mask |= 1 << uint(j)
		s = prev[s]
	}
	return mask, true
}

// SubsetSumMITM is the meet-in-the-middle algorithm, O(2^(n/2)) time and
// space, the strongest generic exact baseline for balanced n and p.
func SubsetSumMITM(values []uint64, target uint64) (mask uint64, ok bool) {
	n := len(values)
	if n == 0 {
		return 0, false
	}
	h := n / 2
	left, right := values[:h], values[h:]
	type entry struct {
		sum  uint64
		mask uint64
	}
	// enumerate lists the subset sums of vals, sorted. A subset whose sum
	// carries out of uint64 exceeds every target and is left out: kept,
	// its wrapped sum could match one.
	enumerate := func(vals []uint64) []entry {
		out := make([]entry, 0, 1<<uint(len(vals)))
	subsets:
		for m := uint64(0); m < 1<<uint(len(vals)); m++ {
			var s, carry uint64
			for j := range vals {
				if m&(1<<uint(j)) != 0 {
					if s, carry = bits.Add64(s, vals[j], 0); carry != 0 {
						continue subsets
					}
				}
			}
			out = append(out, entry{s, m})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].sum < out[j].sum })
		return out
	}
	le := enumerate(left)
	re := enumerate(right)
	for _, e := range le {
		if e.sum > target {
			break
		}
		want := target - e.sum
		// Binary search the right half for `want`.
		i := sort.Search(len(re), func(k int) bool { return re[k].sum >= want })
		for ; i < len(re) && re[i].sum == want; i++ {
			m := e.mask | re[i].mask<<uint(h)
			if m != 0 {
				return m, true
			}
		}
	}
	return 0, false
}

// ApplyMask sums the selected values (for verification).
func ApplyMask(values []uint64, mask uint64) uint64 {
	var s uint64
	for j, v := range values {
		if mask&(1<<uint(j)) != 0 {
			s += v
		}
	}
	return s
}
