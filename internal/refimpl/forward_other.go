//go:build !amd64

package refimpl

import "hmmer3gpu/internal/profile"

// ForwardPair returns Forward(p, a) and Forward(p, b); see forward_amd64.go.
func ForwardPair(p *profile.Profile, a, b []byte) (float64, float64) {
	return Forward(p, a), Forward(p, b)
}
