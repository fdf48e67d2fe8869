// Package alphabet implements the digital amino-acid alphabet used
// throughout the HMMER3 reproduction.
//
// The alphabet follows the paper's Figure 6: 20 standard amino acids,
// 6 degenerate/unusual symbols (B J Z O U X) and 3 gap-like symbols
// ('-' gap, '*' stop/end, '~' missing data), for 29 digital codes in
// total. Each residue therefore fits in 5 bits, which is what enables
// the residue-packing optimisation (six residues per 32-bit word) in
// the GPU path.
package alphabet

import (
	"fmt"
	"slices"
	"strings"
)

// Digital residue codes. Codes 0..19 are the canonical amino acids in
// HMMER's standard order "ACDEFGHIKLMNPQRSTVWY"; 20..25 are the
// degenerate symbols; 26..28 are the gap-like symbols.
const (
	// K is the number of canonical residues (match-state emission arity).
	K = 20
	// Kp is the total number of digital codes (canonical + degenerate + gaps).
	Kp = 29

	// CodeGap is the alignment gap symbol '-'.
	CodeGap = 26
	// CodeEnd is the in-sequence terminator '*'.
	CodeEnd = 27
	// CodeMissing is the missing-data symbol '~'.
	CodeMissing = 28

	// PackSentinel marks padding residues inside a packed word (the
	// paper assigns 31 to "wasteful residues" as a loop-termination flag).
	PackSentinel = 31
)

// Symbols lists the printable symbol for each digital code, indexed by code.
const Symbols = "ACDEFGHIKLMNPQRSTVWYBJZOUX-*~"

// degenerate residue expansions: which canonical residues each
// degenerate code may stand for.
var degenerates = map[byte][]byte{
	'B': {'D', 'N'},
	'J': {'I', 'L'},
	'Z': {'E', 'Q'},
	'O': {'K'}, // pyrrolysine, decoded as lysine
	'U': {'C'}, // selenocysteine, decoded as cysteine
	'X': nil,   // fully degenerate; nil means "all canonical residues"
}

// Alphabet is the digital amino-acid alphabet. It is immutable after
// construction; the zero value is not usable — use New.
type Alphabet struct {
	symToCode [256]int8 // -1 for invalid symbols
	expand    [Kp][]byte
	bg        [K]float64
}

// New returns the standard 29-code amino alphabet with the Robinson &
// Robinson background residue frequencies used by HMMER.
func New() *Alphabet {
	a := &Alphabet{}
	for i := range a.symToCode {
		a.symToCode[i] = -1
	}
	for code := 0; code < Kp; code++ {
		sym := Symbols[code]
		a.symToCode[sym] = int8(code)
		if sym >= 'A' && sym <= 'Z' {
			a.symToCode[sym+'a'-'A'] = int8(code)
		}
	}
	// '.' is accepted as a gap alias in alignment input.
	a.symToCode['.'] = CodeGap
	for code := 0; code < K; code++ {
		a.expand[code] = []byte{byte(code)}
	}
	for sym, exp := range degenerates {
		code := a.symToCode[sym]
		if exp == nil {
			all := make([]byte, K)
			for i := range all {
				all[i] = byte(i)
			}
			a.expand[code] = all
			continue
		}
		codes := make([]byte, len(exp))
		for i, s := range exp {
			codes[i] = byte(a.symToCode[s])
		}
		a.expand[code] = codes
	}
	a.bg = robinsonFrequencies
	return a
}

// robinsonFrequencies are the Robinson & Robinson (1991) amino-acid
// background frequencies in the alphabet's canonical order, as used by
// HMMER's default null model.
var robinsonFrequencies = [K]float64{
	0.0787945, // A
	0.0151600, // C
	0.0535222, // D
	0.0668298, // E
	0.0397062, // F
	0.0695071, // G
	0.0229198, // H
	0.0590092, // I
	0.0594422, // K
	0.0963728, // L
	0.0237718, // M
	0.0414386, // N
	0.0482904, // P
	0.0395639, // Q
	0.0540978, // R
	0.0683364, // S
	0.0540687, // T
	0.0673417, // V
	0.0114135, // W
	0.0304133, // Y
}

// Size returns the number of canonical residues (20).
func (a *Alphabet) Size() int { return K }

// SizeAll returns the total number of digital codes (29).
func (a *Alphabet) SizeAll() int { return Kp }

// Code returns the digital code for symbol s, or an error if s is not
// part of the alphabet.
func (a *Alphabet) Code(s byte) (byte, error) {
	c := a.symToCode[s]
	if c < 0 {
		return 0, fmt.Errorf("alphabet: symbol %q is not a valid amino-acid code", s)
	}
	return byte(c), nil
}

// Symbol returns the printable symbol for digital code c. Codes out of
// range render as '?'.
func (a *Alphabet) Symbol(c byte) byte {
	if int(c) >= Kp {
		return '?'
	}
	return Symbols[c]
}

// IsCanonical reports whether code c is one of the 20 standard residues.
func (a *Alphabet) IsCanonical(c byte) bool { return c < K }

// IsDegenerate reports whether code c is a degenerate residue symbol
// (B, J, Z, O, U or X).
func (a *Alphabet) IsDegenerate(c byte) bool { return c >= K && c < CodeGap }

// IsResidue reports whether code c denotes a residue (canonical or
// degenerate) rather than a gap-like symbol.
func (a *Alphabet) IsResidue(c byte) bool { return c < CodeGap }

// Expand returns the canonical residues a code may stand for. Canonical
// codes expand to themselves; X expands to all 20; gap-like codes
// expand to nothing.
func (a *Alphabet) Expand(c byte) []byte {
	if int(c) >= Kp {
		return nil
	}
	return a.expand[c]
}

// Background returns the background frequency of canonical residue c.
func (a *Alphabet) Background(c byte) float64 {
	if c >= K {
		return 0
	}
	return a.bg[c]
}

// Backgrounds returns a copy of the canonical background distribution.
func (a *Alphabet) Backgrounds() []float64 {
	out := make([]float64, K)
	copy(out, a.bg[:])
	return out
}

// Digitize appends the digital codes of text to dst and returns the
// extended slice, so a reader can digitise each input line straight
// into the record it builds. Whitespace (space, tab, CR, LF) is
// skipped; any other symbol outside the alphabet is an error naming
// its byte position in text, and the slice returned with it holds the
// codes appended before that symbol.
func (a *Alphabet) Digitize(dst, text []byte) ([]byte, error) {
	n := len(dst)
	dst = slices.Grow(dst, len(text))[:n+len(text)]
	for i, s := range text {
		c := a.symToCode[s]
		if c < 0 {
			if s == ' ' || s == '\t' || s == '\n' || s == '\r' {
				continue
			}
			_, err := a.Code(s)
			return dst[:n], fmt.Errorf("alphabet: position %d: %w", i, err)
		}
		dst[n] = byte(c)
		n++
	}
	return dst[:n], nil
}

// Textize converts digital codes back to a printable string.
func (a *Alphabet) Textize(dsq []byte) string {
	var b strings.Builder
	b.Grow(len(dsq))
	for _, c := range dsq {
		b.WriteByte(a.Symbol(c))
	}
	return b.String()
}

// DegenerateScore returns the expected match score of a degenerate code
// given per-canonical-residue scores, weighting by background frequency
// (HMMER's marginalisation rule for degenerate residues).
func (a *Alphabet) DegenerateScore(c byte, scores []float64) float64 {
	exp := a.Expand(c)
	if len(exp) == 0 {
		return 0
	}
	if len(exp) == 1 {
		return scores[exp[0]]
	}
	var num, den float64
	for _, r := range exp {
		num += a.bg[r] * scores[r]
		den += a.bg[r]
	}
	if den == 0 {
		return 0
	}
	return num / den
}
