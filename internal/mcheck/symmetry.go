package mcheck

import "innetcc/internal/network"

// Symmetry reduction. Two states that differ only by a mesh automorphism
// (composed with a matching permutation of interchangeable ops) have
// isomorphic futures, so the visited set stores a canonical 64-bit hash:
// the minimum, over the model's automorphism group, of an FNV-1a hash of
// the permuted state encoding. Canonicalization happens only at the
// visited-set boundary — invariants always run against the concrete
// successor state — so a hash collision can at worst re-merge two classes,
// never corrupt a state.
//
// The group is deliberately smaller than the full dihedral group of the
// mesh. X-Y routing orders the X hop before the Y hop, so the transpose
// reflections are *not* automorphisms of the transition relation; the axis
// flips are (they swap E↔W or N↔S wholesale, which commutes with "route X
// first"), provided they fix the home node, since Checker.Home names a
// concrete node. The TreeLine.CloserLink tie-break (N,S before E,W) is also
// flip-invariant: a strictly-closer candidate set holds at most one
// vertical and one horizontal direction, and flips preserve the classes.
// On top of each valid flip σ, every op-index permutation π with
// Ops[π(i)] = (σ(Ops[i].Node), Ops[i].Write) is an automorphism; the set
// of all such (σ, π) pairs is closed under composition, so min-hashing
// over it is a sound canonicalization.

// symElem is one automorphism, stored inverted for the encoder: position n
// of the permuted state reads original node node[n]; direction slot d
// reads original direction dir[d] (axis flips are involutions, so the map
// is its own inverse); op slot i reads original op opInv[i], and an op
// index o appearing inside a message encodes as opEnc[o].
type symElem struct {
	node  []int32
	dir   [network.DirNone + 1]network.Dir
	opInv []int8
	opEnc []int8
}

// groupCap bounds the automorphism group actually used. Min-hashing over a
// subSET is only sound when the subset is a subGROUP, so when the full
// group would exceed the cap we fall back to the op-permutation subgroup
// (σ = identity), and to the trivial group after that.
const groupCap = 256

func (c *Checker) buildGroup() {
	identityOnly := func() []symElem {
		perm := make([]int8, len(c.Ops))
		for i := range perm {
			perm[i] = int8(i)
		}
		return []symElem{c.makeElem(func(n int) int { return n }, false, false, perm)}
	}
	if !c.Symmetry {
		c.group = identityOnly()
		return
	}

	// Axis flips are automorphisms of X-Y routing on the open mesh only:
	// the torus tie-break (exact half-way distances route East/South) and
	// the ring tie-break (clockwise) both pick a handedness a flip would
	// reverse. Other fabrics keep the op-permutation subgroup.
	mesh, isMesh := c.Topo.(network.Mesh2D)
	full := c.enumerate(mesh, isMesh)
	if len(full) <= groupCap {
		c.group = full
		return
	}
	opsOnly := c.enumerate(mesh, false)
	if len(opsOnly) <= groupCap {
		c.group = opsOnly
		return
	}
	c.group = identityOnly()
}

// enumerate builds every (flip, op-permutation) automorphism; withFlips
// false restricts to the identity flip (the op-permutation subgroup), and
// mesh is only read when flips are on.
func (c *Checker) enumerate(mesh network.Mesh2D, withFlips bool) []symElem {
	var out []symElem
	for _, f := range [4][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		fx, fy := f[0], f[1]
		if (fx || fy) && !withFlips {
			continue
		}
		// The flip must fix the home node.
		if fx && 2*(c.Home%mesh.W) != mesh.W-1 {
			continue
		}
		if fy && 2*(c.Home/mesh.W) != mesh.H-1 {
			continue
		}
		sigma := func(n int) int {
			if !fx && !fy {
				return n
			}
			x, y := n%mesh.W, n/mesh.W
			if fx {
				x = mesh.W - 1 - x
			}
			if fy {
				y = mesh.H - 1 - y
			}
			return y*mesh.W + x
		}
		// Image of each op under σ; π must map op i to an identical op at
		// the image node.
		target := make([]Op, len(c.Ops))
		for i, op := range c.Ops {
			target[i] = Op{Node: sigma(op.Node), Write: op.Write}
		}
		perm := make([]int8, len(c.Ops))
		used := make([]bool, len(c.Ops))
		var rec func(i int)
		rec = func(i int) {
			if len(out) > groupCap {
				return
			}
			if i == len(c.Ops) {
				out = append(out, c.makeElem(sigma, fx, fy, perm))
				return
			}
			for j := range c.Ops {
				if used[j] || c.Ops[j] != target[i] {
					continue
				}
				used[j] = true
				perm[i] = int8(j)
				rec(i + 1)
				used[j] = false
			}
		}
		rec(0)
		if len(out) > groupCap {
			// Overflowed: hand the decision back to buildGroup.
			return out
		}
	}
	return out
}

// makeElem freezes one automorphism into encoder tables. perm is π
// (original op index → image op index); sigma maps nodes forward.
func (c *Checker) makeElem(sigma func(int) int, fx, fy bool, perm []int8) symElem {
	g := symElem{
		node:  make([]int32, c.nodes),
		opInv: make([]int8, len(perm)),
		opEnc: make([]int8, len(perm)),
	}
	for n := 0; n < c.nodes; n++ {
		g.node[sigma(n)] = int32(n) // node[σ(u)] = u
	}
	for d := range g.dir {
		g.dir[d] = network.Dir(d)
	}
	if fy {
		g.dir[network.North], g.dir[network.South] = network.South, network.North
	}
	if fx {
		g.dir[network.East], g.dir[network.West] = network.West, network.East
	}
	for i := range perm {
		g.opEnc[i] = perm[i]
		g.opInv[perm[i]] = int8(i)
	}
	return g
}

// FNV-1a, finalized with the splitmix64 mixer so the visited set can use
// the hash bits directly as open-addressing probe bits.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 struct{ h uint64 }

func (f *fnv64) b(x byte) { f.h = (f.h ^ uint64(x)) * fnvPrime }

func (f *fnv64) sum() uint64 {
	z := f.h
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// canonicalHash is the state's visited-set identity: the minimum hash of
// its encoding over the automorphism group. Allocation-free.
func (c *Checker) canonicalHash(s *state) uint64 {
	best := ^uint64(0)
	for gi := range c.group {
		if h := c.hashUnder(s, &c.group[gi]); h < best {
			best = h
		}
	}
	return best
}

// hashUnder hashes the encoding of s permuted by g. The encoding is the
// same canonical byte layout the old string key used, read through g's
// inverse tables instead of materializing the permuted state.
func (c *Checker) hashUnder(s *state, g *symElem) uint64 {
	f := fnv64{fnvOffset}
	encOp := func(o int8) byte {
		if o < 0 {
			return 0xff
		}
		return byte(g.opEnc[o])
	}
	for n := 0; n < c.nodes; n++ {
		u := g.node[n]
		t := &s.lines[u]
		var flags byte
		if t.Valid {
			flags |= 1
		}
		if t.Touched {
			flags |= 2
		}
		if t.IsRoot {
			flags |= 4
		}
		if t.LocalValid {
			flags |= 8
		}
		if t.OutstandingReq {
			flags |= 16
		}
		f.b(flags)
		f.b(byte(g.dir[t.RootDir]))
		var lb byte
		for d := 0; d < network.MaxDegree; d++ {
			if t.Links[g.dir[d]] {
				lb |= 1 << d
			}
		}
		f.b(lb)
		f.b(byte(s.data[u]))
		f.b(byte(s.dver[u]))
	}
	f.b(byte(s.memV))
	f.b(byte(s.wrote))
	for i := range s.ops {
		o := s.ops[g.opInv[i]]
		f.b(byte(o.Phase))
		f.b(byte(o.Sampled))
	}
	encQ := func(q []msg) {
		f.b(byte(len(q)))
		for _, m := range q {
			var fl byte
			if m.Root {
				fl |= 1
			}
			if m.Built {
				fl |= 2
			}
			if m.HomeServe {
				fl |= 4
			}
			f.b(byte(m.Type))
			f.b(encOp(m.Op))
			f.b(byte(m.Ver))
			f.b(fl)
		}
	}
	for n := 0; n < c.nodes; n++ {
		u := g.node[n]
		for d := 0; d < network.MaxDegree; d++ {
			encQ(*s.channel(int(u), g.dir[d]))
		}
		encQ(s.nicq[u])
	}
	encQ(s.homeq)
	encQ(s.pendq)
	if s.pend {
		f.b(1)
	} else {
		f.b(0)
	}
	return f.sum()
}
