package query

import (
	"math"
	"strconv"
	"strings"

	"lqo/internal/data"
)

// KeyBuilder assembles the canonical, collision-safe cache keys used by
// Query.Key, plan fingerprints and the serving layer's plan cache. The
// old ad-hoc formats joined components with bare ","/";"/"|"/")"
// delimiters, so any alias, table, column or literal containing a
// delimiter could make two distinct queries (or plans) render the same
// key — latent until a cache keys on it, then silent wrong results.
//
// The encoding is prefix-free by construction: every piece of variable
// content is length-prefixed ("5:ab|cd"), so no embedded byte can ever
// be confused with structure; fixed structural markers (Raw) come from a
// small static vocabulary and always follow a self-delimiting segment.
// Numeric literals render through CanonNum so semantically identical
// values ("1e+06" vs "1000000") hash to the same entry.
//
// The zero KeyBuilder is ready to use. All key construction in the
// module must go through this type — the keycanon analyzer in
// cmd/lqo-lint rejects raw strings.Join/Sprintf/concat key building.
type KeyBuilder struct {
	b strings.Builder
}

// Raw appends a fixed structural marker. Only static vocabulary — never
// user- or data-derived content, which must go through Atom or Num.
func (k *KeyBuilder) Raw(s string) *KeyBuilder {
	k.b.WriteString(s)
	return k
}

// Atom appends arbitrary variable content, length-prefixed so embedded
// delimiter bytes cannot collide with key structure.
func (k *KeyBuilder) Atom(s string) *KeyBuilder {
	k.b.WriteString(strconv.Itoa(len(s)))
	k.b.WriteByte(':')
	k.b.WriteString(s)
	return k
}

// Num appends a numeric literal in canonical form (see CanonNum),
// length-prefixed like any other atom.
func (k *KeyBuilder) Num(v data.Value) *KeyBuilder {
	return k.Atom(CanonNum(v))
}

// Append concatenates an already-encoded segment produced by another
// KeyBuilder (segments are self-delimiting, so no separator is needed).
func (k *KeyBuilder) Append(seg string) *KeyBuilder {
	k.b.WriteString(seg)
	return k
}

// Grow reserves room for n more bytes, for callers that know the size of
// the key they are about to assemble.
func (k *KeyBuilder) Grow(n int) { k.b.Grow(n) }

// Len returns the number of bytes written so far.
func (k *KeyBuilder) Len() int { return k.b.Len() }

// String returns the assembled key.
func (k *KeyBuilder) String() string {
	return k.b.String()
}

// CanonNum renders a value canonically for key purposes: every integral
// number inside the exact-int53 window prints as plain decimal digits,
// whatever its Kind, so IntVal(1000000) and FloatVal(1e6) — the same
// predicate semantically — share one key instead of drifting apart as
// "1000000" vs "1e+06". Non-integral and out-of-window floats use the
// shortest round-trip form, which is canonical per float64 bit pattern;
// huge integral floats (≥2^53) deliberately stay distinct from exact
// int64 literals because their match semantics genuinely differ
// (Pred.MatchesInt compares exactly, the float path conflates adjacent
// keys).
func CanonNum(v data.Value) string {
	if v.K != data.Float {
		return strconv.FormatInt(v.I, 10)
	}
	f := v.F
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// appendKey writes the predicate's canonical key segment. Params render
// as "?N" ordinals so a prepared statement's shape key captures binding
// structure without literal values; length-prefixed atoms guarantee a
// bound literal can never collide with the structural "?" marker.
func (p Pred) appendKey(k *KeyBuilder) {
	k.Raw("p(").Atom(p.Alias).Raw(".").Atom(p.Column).Raw(p.Op.String())
	if p.Param != 0 {
		k.Raw("?").Atom(strconv.Itoa(p.Param))
	} else {
		k.Num(p.Val)
	}
	if p.Op == Between {
		k.Raw("&")
		if p.Param2 != 0 {
			k.Raw("?").Atom(strconv.Itoa(p.Param2))
		} else {
			k.Num(p.Val2)
		}
	}
	k.Raw(")")
}

// KeyString returns the predicate's canonical key segment.
func (p Pred) KeyString() string {
	var k KeyBuilder
	p.appendKey(&k)
	return k.String()
}

// appendKey writes the join edge's canonical key segment, preserving
// operand order (plan join conditions are order-sensitive; Query.Key
// normalizes sides before calling this).
func (j Join) appendKey(k *KeyBuilder) {
	k.Raw("j(").Atom(j.LeftAlias).Raw(".").Atom(j.LeftCol).Raw("=").Atom(j.RightAlias).Raw(".").Atom(j.RightCol).Raw(")")
}

// KeyString returns the join edge's canonical key segment.
func (j Join) KeyString() string {
	var k KeyBuilder
	j.appendKey(&k)
	return k.String()
}
