package main

import (
	"math"

	"bmeh"
)

// Every key is two 32-bit components. The two low bits of the second
// component tag the key's class, so the classes are disjoint by
// construction: a GET for an absent key can never hit a seeded record,
// and a fresh PUT can never collide with one.
const (
	tagSeed   = 0
	tagFresh  = 1
	tagAbsent = 2
	tagMask   = 3
)

// dist is how seeded keys are spread over the key space.
type dist int

const (
	uniform dist = iota
	// normal is a truncated normal centred in each dimension with
	// sigma = 2^29, an eighth of the component range.
	normal
)

const (
	normalMean  = float64(1 << 31)
	normalSigma = float64(1 << 29)
	space       = float64(1 << 32)
)

// gen derives every input of a run from the seed. Key i of a class is a
// pure function of (seed, class, i), so the model never has to be held
// in memory: checks regenerate the keys they need.
type gen struct {
	salt uint64
	dist dist
	n    int // seeded keys
}

func newGen(seed uint64, d dist, n int) *gen {
	return &gen{salt: mix64(seed ^ 0x6a09e667f3bcc908), dist: d, n: n}
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

func (g *gen) hash(tag, i, k uint64) uint64 {
	return mix64(g.salt ^ mix64(tag<<56^i<<8^k))
}

// xy returns the components of key i of class tag.
func (g *gen) xy(tag uint64, i int) (x, y uint32) {
	if g.dist == normal && tag == tagSeed {
		x = g.normal32(tag, uint64(i), 0)
		y = g.normal32(tag, uint64(i), 1)
	} else {
		h := g.hash(tag, uint64(i), 0)
		x, y = uint32(h>>32), uint32(h)
	}
	return x, y&^tagMask | uint32(tag)
}

// normal32 draws one truncated-normal component; draws outside the
// component range are rejected and redrawn from the next hash.
func (g *gen) normal32(tag, i, dim uint64) uint32 {
	for k := dim; ; k += 2 {
		h := g.hash(tag, i, k)
		u1 := (float64(h>>11) + 0.5) / (1 << 53)
		u2 := float64(g.hash(tag, i, k+64)>>11) / (1 << 53)
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		v := normalMean + normalSigma*z
		if v >= 0 && v < space {
			return uint32(v)
		}
	}
}

func key(x, y uint32) bmeh.Key { return bmeh.Key{uint64(x), uint64(y)} }

func (g *gen) seedKey(i int) bmeh.Key   { return key(g.xy(tagSeed, i)) }
func (g *gen) freshKey(i int) bmeh.Key  { return key(g.xy(tagFresh, i)) }
func (g *gen) absentKey(i int) bmeh.Key { return key(g.xy(tagAbsent, i)) }

// freshIndex numbers fresh keys so that each client goroutine owns a
// disjoint, deterministic sequence: goroutine w's j-th PUT.
func freshIndex(w, j int) int { return j<<4 | w }

// value is the value every record of key k carries.
func (g *gen) value(k bmeh.Key) uint64 { return mix64(k[0]<<32 | k[1] ^ g.salt) }

// seedKVs iterates the seeded records in index order.
func (g *gen) seedKVs() func() (bmeh.KV, bool, error) {
	i := 0
	return func() (bmeh.KV, bool, error) {
		if i == g.n {
			return bmeh.KV{}, false, nil
		}
		k := g.seedKey(i)
		i++
		return bmeh.KV{Key: k, Value: g.value(k)}, true, nil
	}
}

// box is an axis-aligned query rectangle, both corners inclusive.
type box struct{ lo, hi [2]uint32 }

func (b box) keys() (lo, hi bmeh.Key) { return key(b.lo[0], b.lo[1]), key(b.hi[0], b.hi[1]) }

func (b box) contains(x, y uint32) bool {
	return x >= b.lo[0] && x <= b.hi[0] && y >= b.lo[1] && y <= b.hi[1]
}

// boxAround returns a square centred on (cx, cy) sized so that it holds
// about want seeded keys at the seed distribution's density there.
func (g *gen) boxAround(cx, cy uint32, want float64) box {
	density := float64(g.n) / (space * space)
	if g.dist == normal {
		density = float64(g.n) * pdf(float64(cx)) * pdf(float64(cy))
	}
	half := math.Sqrt(want/density) / 2
	lo := func(c uint32) uint32 { return uint32(math.Max(0, float64(c)-half)) }
	hi := func(c uint32) uint32 { return uint32(math.Min(space-1, float64(c)+half)) }
	return box{lo: [2]uint32{lo(cx), lo(cy)}, hi: [2]uint32{hi(cx), hi(cy)}}
}

// pdf is the (untruncated) normal density of one component.
func pdf(v float64) float64 {
	z := (v - normalMean) / normalSigma
	return math.Exp(-z*z/2) / (normalSigma * math.Sqrt(2*math.Pi))
}
