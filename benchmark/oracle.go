package main

import "fmt"

// Everything here is the single-threaded reference the program's
// outputs are checked against. None of it calls the program: a
// throughput number counts only if the channels delivered the same
// stream this file predicts.

// splitmix64 is the generator behind every seeded input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// foldHash is the running hash both ends of bulk-wire keep over the
// token stream: order-sensitive, one multiply per token.
func foldHash(h uint64, vs []int64) uint64 {
	for _, v := range vs {
		h = (h + uint64(v)) * 0x9e3779b97f4a7c15
	}
	return h
}

// walkBatches returns count batches of batchLen tokens forming one
// continuous seeded random walk with small steps, so the link's block
// codec packs every chunk (zigzag deltas fit 8 bits).
func walkBatches(seed int64, count, batchLen int) [][]int64 {
	out := make([][]int64, count)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	v := int64(1) << 40
	for b := range out {
		batch := make([]int64, batchLen)
		for i := range batch {
			x = splitmix64(x)
			v += int64(x%128) - 64
			batch[i] = v
		}
		out[b] = batch
	}
	return out
}

// walkHash is the oracle for a bulk-wire job: the hash of n batches
// drawn round-robin from pool.
func walkHash(pool [][]int64, n int) uint64 {
	var h uint64
	for i := 0; i < n; i++ {
		h = foldHash(h, pool[i%len(pool)])
	}
	return h
}

// Stream-analytics shape: fixed, because the oracle and the shipped
// processes must agree on it.
const (
	streamKeys   = 64
	streamWindow = 4
	streamShards = 4
	// flushTag is the tag the program's WindowReduce gives the partial
	// windows it flushes at end of stream; it orders them after every
	// closed window. The oracle has to predict the program's output, so
	// the value is restated here.
	flushTag = int64(1) << 62
)

// streamPairs generates records [0,n) of the seeded keyed stream as
// (key, value) pairs. Values are 40 random bits, so neither the pair
// stream nor the sums compress and the link's codec trial refuses.
func streamPairs(seed int64, n int) []int64 {
	out := make([]int64, 0, 2*n)
	base := uint64(seed) * 0x9e3779b97f4a7c15
	for i := 0; i < n; i++ {
		k := splitmix64(base + uint64(i)*2)
		v := splitmix64(base + uint64(i)*2 + 1)
		out = append(out, int64(k%streamKeys), int64(v>>24))
	}
	return out
}

// streamOracle replays the pipeline sequentially over the pair stream:
// per-key tumbling windows of streamWindow records, each closed window
// emitting (index of the closing record, key, sum), then the partial
// windows sorted by key under flushTag.
func streamOracle(pairs []int64) []int64 {
	var sums, counts [streamKeys]int64
	out := make([]int64, 0, len(pairs)/2/streamWindow*3+3*streamKeys)
	for i := 0; i+1 < len(pairs); i += 2 {
		key, val := pairs[i], pairs[i+1]
		sums[key] += val
		counts[key]++
		if counts[key] == streamWindow {
			out = append(out, int64(i/2), key, sums[key])
			sums[key], counts[key] = 0, 0
		}
	}
	for key := int64(0); key < streamKeys; key++ {
		if counts[key] > 0 {
			out = append(out, flushTag, key, sums[key])
		}
	}
	return out
}

// fibonacci returns the first n Fibonacci numbers 1, 1, 2, 3, …
func fibonacci(n int) []int64 {
	out := make([]int64, n)
	a, b := int64(1), int64(1)
	for i := range out {
		out[i] = a
		a, b = b, a+b
	}
	return out
}

// hamming returns the first n integers of the form 2^k·3^m·5^n in
// ascending order.
func hamming(n int) []int64 {
	out := make([]int64, n)
	out[0] = 1
	i2, i3, i5 := 0, 0, 0
	for i := 1; i < n; i++ {
		a, b, c := out[i2]*2, out[i3]*3, out[i5]*5
		m := min(a, b, c)
		out[i] = m
		if m == a {
			i2++
		}
		if m == b {
			i3++
		}
		if m == c {
			i5++
		}
	}
	return out
}

// primes returns the first n primes.
func primes(n int) []int64 {
	out := make([]int64, 0, n)
	for c := int64(2); len(out) < n; c++ {
		isPrime := true
		for _, p := range out {
			if p*p > c {
				break
			}
			if c%p == 0 {
				isPrime = false
				break
			}
		}
		if isPrime {
			out = append(out, c)
		}
	}
	return out
}

// equalInt64s reports the first difference between a program output
// and its oracle.
func equalInt64s(what string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: element %d is %d, oracle says %d", what, i, got[i], want[i])
		}
	}
	return nil
}
