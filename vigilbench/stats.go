package main

import "sort"

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it: the value with exactly tailBeyond larger samples, its
// percentile, and the number of samples beyond it. With tailBeyond or fewer
// samples no such percentile exists; tail then returns the maximum at
// percentile 100 with none beyond, and the caller reports the shortfall.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return s[n-1], 100, 0
	}
	k := n - tailBeyond // 1-based rank of the reported sample
	return s[k-1], 100 * float64(k) / float64(n), tailBeyond
}
