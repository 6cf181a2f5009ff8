package ir

import "math/bits"

// radixBits bounds a digit's width, so one pass counts into at most
// 1<<radixBits buckets.
const radixBits = 11

// RadixSort stably sorts idx ascending by keys, most significant first:
// elements equal in every key keep their relative order. It is an LSD
// radix sort, one counting pass per digit of each key. A key's digits
// are taken from its offset above the smallest key in idx, with the
// width spread evenly over the offset's bit length (at most radixBits),
// and a digit on which every element agrees costs one counting scan and
// no reordering. Any int is a valid key, negative or huge: memory is
// O(len(idx) + 1<<radixBits) whatever the key values, and time is
// O(len(idx) · digits) with at most ⌈64/radixBits⌉ digits per key — one
// or two for the rank, chunk, step and position keys the compile
// pipeline sorts by.
func RadixSort(idx []int32, keys ...func(int32) int) {
	if len(idx) < 2 {
		return
	}
	out, tmp := idx, make([]int32, len(idx))
	var count [1<<radixBits + 1]int
	for k := len(keys) - 1; k >= 0; k-- {
		key := keys[k]
		lo, hi := key(idx[0]), key(idx[0])
		for _, i := range idx[1:] {
			v := key(i)
			lo, hi = min(lo, v), max(hi, v)
		}
		span := uint64(hi) - uint64(lo) // exact even when hi-lo overflows int
		nbits := bits.Len64(span)
		if nbits == 0 {
			continue
		}
		passes := (nbits + radixBits - 1) / radixBits
		width := (nbits + passes - 1) / passes
		mask := uint64(1)<<width - 1
		for shift := 0; shift < nbits; shift += width {
			digit := func(i int32) int { return int((uint64(key(i)) - uint64(lo)) >> shift & mask) }
			c := count[:mask+2]
			clear(c)
			for _, i := range idx {
				c[digit(i)+1]++
			}
			if c[digit(idx[0])+1] == len(idx) {
				continue // every element shares this digit
			}
			for d := 1; d < len(c); d++ {
				c[d] += c[d-1]
			}
			for _, i := range idx {
				d := digit(i)
				tmp[c[d]] = i
				c[d]++
			}
			idx, tmp = tmp, idx
		}
	}
	if &idx[0] != &out[0] {
		copy(out, idx)
	}
}
