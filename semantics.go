package repro

import (
	"fmt"

	"repro/internal/core"
)

// Semantics selects the occurrence semantics of a mining run: what counts
// as "the pattern occurs here" and therefore what its support measures.
// The zero value is SemanticsRepetitive, the paper's definition. Parse
// wire/flag names with ParseSemantics; the same names are accepted by the
// server's "semantics" JSON field and the gsgrow -semantics flag. See the
// README's "Mining modes" matrix for the mode × surface × paper map.
type Semantics int

const (
	// SemanticsRepetitive is the paper's repetitive support (Ding, Lo,
	// Han, Khoo, ICDE 2009): the maximum number of pairwise
	// non-overlapping instances, where two instances overlap only if they
	// share a position at the same pattern index. The default.
	SemanticsRepetitive Semantics = iota
	// SemanticsNonOverlapping counts disjoint occurrence windows: each
	// occurrence must start strictly after the previous one's last event
	// (the stricter non-overlapping semantics of Geng et al.,
	// arXiv:2311.09667). Support is at most the repetitive support.
	SemanticsNonOverlapping
	// SemanticsCompressed mines the closed pattern set and returns a
	// small set of representatives that δ-covers it (Tong et al.,
	// arXiv:0906.0885): every closed pattern is a subsequence of some
	// representative whose support is within a (1-CompressDelta) factor.
	// MaxPatterns caps the number of representatives.
	SemanticsCompressed
	// SemanticsGapped mines under a gap constraint: every gap between
	// consecutive pattern events must lie in [MinGap, MaxGap] (the
	// paper's Section V future-work extension). Support is the maximum
	// number of non-overlapping instances whose gaps all lie in range,
	// computed per sequence by max flow. It is monotone under prefixes
	// but not under arbitrary sub-patterns (deleting a middle event
	// merges two gaps), so unlike the other modes the result set is
	// closed under prefixes only.
	SemanticsGapped
)

// DefaultCompressDelta is the support tolerance used by
// SemanticsCompressed when Options.CompressDelta is zero.
const DefaultCompressDelta = core.DefaultCompressDelta

// String returns the wire/flag name of the semantics ("repetitive",
// "nonoverlap", "compressed", "gapped").
func (s Semantics) String() string {
	switch s {
	case SemanticsRepetitive:
		return "repetitive"
	case SemanticsNonOverlapping:
		return "nonoverlap"
	case SemanticsCompressed:
		return "compressed"
	case SemanticsGapped:
		return "gapped"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// ParseSemantics maps a wire/flag name to a Semantics. The empty string
// selects the default (SemanticsRepetitive); unknown names return an
// error wrapping ErrUnknownSemantics.
func ParseSemantics(name string) (Semantics, error) {
	switch name {
	case "", "repetitive":
		return SemanticsRepetitive, nil
	case "nonoverlap":
		return SemanticsNonOverlapping, nil
	case "compressed":
		return SemanticsCompressed, nil
	case "gapped":
		return SemanticsGapped, nil
	default:
		return 0, fmt.Errorf("repro: %w %q (want repetitive, nonoverlap, compressed, or gapped)", ErrUnknownSemantics, name)
	}
}

// coreSemantics maps the public enum to the kernel's strategy value; the
// gapped mode runs its own miner and never reaches the kernel.
func coreSemantics(s Semantics) core.Semantics {
	switch s {
	case SemanticsNonOverlapping:
		return core.NonOverlapping
	case SemanticsCompressed:
		return core.Compressed
	default:
		return nil
	}
}

// validateSemantics checks the semantics-dependent option combinations
// shared by every mining surface.
func validateSemantics(opt Options, closed bool) error {
	switch opt.Semantics {
	case SemanticsRepetitive, SemanticsNonOverlapping, SemanticsCompressed, SemanticsGapped:
	default:
		return fmt.Errorf("repro: %w %s", ErrUnknownSemantics, opt.Semantics)
	}
	if opt.Semantics != SemanticsGapped && (opt.MinGap != 0 || opt.MaxGap != 0) {
		return fmt.Errorf("repro: %w: MinGap/MaxGap require SemanticsGapped (got %s)", ErrInvalidOptions, opt.Semantics)
	}
	if opt.Semantics != SemanticsCompressed && opt.CompressDelta != 0 {
		return fmt.Errorf("repro: %w: CompressDelta requires SemanticsCompressed (got %s)", ErrInvalidOptions, opt.Semantics)
	}
	if opt.CompressDelta < 0 || opt.CompressDelta >= 1 {
		return fmt.Errorf("repro: %w: CompressDelta must be in [0, 1), got %g", ErrInvalidOptions, opt.CompressDelta)
	}
	if closed && opt.Semantics == SemanticsNonOverlapping {
		return fmt.Errorf("repro: %w: closed mining is not defined under nonoverlap semantics", ErrInvalidOptions)
	}
	if closed && opt.Semantics == SemanticsGapped {
		return fmt.Errorf("repro: %w: closed mining is not defined under gapped semantics", ErrInvalidOptions)
	}
	if opt.Semantics == SemanticsGapped {
		if opt.Workers > 1 {
			return fmt.Errorf("repro: %w: the gapped miner is sequential (Workers must be <= 1)", ErrInvalidOptions)
		}
		if opt.CollectInstances {
			return fmt.Errorf("repro: %w: CollectInstances is not supported under gapped semantics", ErrInvalidOptions)
		}
	}
	return nil
}
