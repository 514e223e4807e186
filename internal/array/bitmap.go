package array

import "math/bits"

// Bitmap is a fixed-length bit set used for chunk presence and null masks.
type Bitmap struct {
	n     int64
	words []uint64
}

// NewBitmap allocates a cleared bitmap of n bits.
func NewBitmap(n int64) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the bit count.
func (b *Bitmap) Len() int64 { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int64) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int64) { b.words[i>>6] &^= 1 << uint(i&63) }

// Get reports bit i.
func (b *Bitmap) Get(i int64) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// SetAll sets every bit.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Count returns the number of set bits. It only reads: bits beyond n are
// masked, not cleared, so concurrent readers of a shared chunk never race.
func (b *Bitmap) Count() int64 {
	var n int
	for i, w := range b.words {
		if i == len(b.words)-1 && b.n%64 != 0 {
			w &= (1 << uint(b.n%64)) - 1
		}
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// CountRange returns the number of set bits in [lo, hi), clamped to the
// bitmap's length. It is the ranged popcount the run-at-a-time operators
// use to count present cells per RLE run.
func (b *Bitmap) CountRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0
	}
	// No trim here: the hi mask already excludes bits past hi-1, and
	// trimming would mutate a bitmap shared by parallel workers.
	w0, w1 := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if w0 == w1 {
		return int64(bits.OnesCount64(b.words[w0] & loMask & hiMask))
	}
	n := bits.OnesCount64(b.words[w0] & loMask)
	for w := w0 + 1; w < w1; w++ {
		n += bits.OnesCount64(b.words[w])
	}
	n += bits.OnesCount64(b.words[w1] & hiMask)
	return int64(n)
}

// SetRange sets every bit in [lo, hi), clamped to the bitmap's length.
func (b *Bitmap) SetRange(lo, hi int64) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return
	}
	w0, w1 := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if w0 == w1 {
		b.words[w0] |= loMask & hiMask
		return
	}
	b.words[w0] |= loMask
	for w := w0 + 1; w < w1; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[w1] |= hiMask
}

// CountPresentNotNull returns the number of slots in [lo, hi) that are set
// in present and clear in nulls — the cells an aggregate actually steps.
func CountPresentNotNull(present, nulls *Bitmap, lo, hi int64) int64 {
	n := present.n
	if nulls.n < n {
		n = nulls.n
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0
	}
	w0, w1 := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if w0 == w1 {
		return int64(bits.OnesCount64(present.words[w0] &^ nulls.words[w0] & loMask & hiMask))
	}
	c := bits.OnesCount64(present.words[w0] &^ nulls.words[w0] & loMask)
	for w := w0 + 1; w < w1; w++ {
		c += bits.OnesCount64(present.words[w] &^ nulls.words[w])
	}
	c += bits.OnesCount64(present.words[w1] &^ nulls.words[w1] & hiMask)
	return int64(c)
}

// Clone copies the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{n: b.n, words: append([]uint64(nil), b.words...)}
	return out
}

// Words exposes the raw words for serialization.
func (b *Bitmap) Words() []uint64 { return b.words }

// FromWords reconstructs a bitmap from serialized words.
func FromWords(n int64, words []uint64) *Bitmap {
	return &Bitmap{n: n, words: words}
}

// trim clears bits beyond n so Count stays exact after SetAll.
func (b *Bitmap) trim() {
	if b.n%64 == 0 || len(b.words) == 0 {
		return
	}
	last := len(b.words) - 1
	b.words[last] &= (1 << uint(b.n%64)) - 1
}
