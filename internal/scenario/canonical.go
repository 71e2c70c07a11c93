package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// Canonical config serialization: the byte string that keys the result cache
// in internal/serve. Two configs that provoke byte-identical runs must
// canonicalise to identical bytes, so the form
//
//   - applies DefaultConfig to every zero field (a hand-built Config with
//     Vehicles unset and one with Vehicles: 100 describe the same run; an
//     empty CryptoScheme and "ecdsa" likewise),
//   - sorts and deduplicates EvasiveClusters (membership is a set; the
//     world materialises it as a map, so order never reaches the RNG),
//   - clears Trace (the recorder only observes; the differential suite
//     holds runs byte-identical with tracing on or off),
//   - collapses RunWorkers to its class (serial or sharded), and
//   - marshals with encoding/json, which emits struct fields in declaration
//     order — deterministic because Config and fault.Plan are plain data
//     with no maps.
//
// The seed and the full fault plan stay in the bytes: they change the run,
// so they must change the key.

// Canonical returns the canonical serialization of cfg.
func Canonical(cfg Config) ([]byte, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.EvasiveClusters) > 0 {
		set := append([]int(nil), cfg.EvasiveClusters...)
		sort.Ints(set)
		uniq := set[:1]
		for _, c := range set[1:] {
			if c != uniq[len(uniq)-1] {
				uniq = append(uniq, c)
			}
		}
		cfg.EvasiveClusters = uniq
	} else {
		// Empty and nil both mean "no evasive clusters" but marshal as []
		// and null; collapse them to one key.
		cfg.EvasiveClusters = nil
	}
	cfg.Trace = false
	// Sharded outcomes depend only on the mode (serial vs. sharded), never on
	// the exact worker count, so the key collapses RunWorkers to its
	// equivalence class: 1 for every serial value, 2 for every sharded one.
	if cfg.RunWorkers >= 2 {
		cfg.RunWorkers = 2
	} else {
		cfg.RunWorkers = 1
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalising config: %w", err)
	}
	return b, nil
}

// Fingerprint returns the hex SHA-256 of the canonical serialization — the
// stable identity of the run cfg describes. By the replay-determinism
// guarantee (see the differential tests), equal fingerprints mean
// byte-identical outcomes.
func Fingerprint(cfg Config) (string, error) {
	b, err := Canonical(cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
