package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// MarshalJSON / config files: Config is plain data, so the default encoding
// works; durations serialise as nanoseconds, which keeps files seed-exact.

// LoadConfig reads a JSON config file, layering it over DefaultConfig so
// files only need to name the fields they change.
func LoadConfig(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("scenario: reading config: %w", err)
	}
	cfg, err := DecodeConfig(b)
	if err != nil {
		return Config{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return cfg, nil
}

// DecodeConfig parses a JSON config document, layering it over DefaultConfig
// exactly as LoadConfig does for files. The serve subsystem decodes request
// bodies and recovered journals through it so a job payload and a config
// file mean the same thing. Decoding is strict: a field Config does not have
// (a typo, or one a later release removed) and data after the document are
// errors, never silently dropped.
func DecodeConfig(b []byte) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("parsing config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("parsing config: trailing data after the config document")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SaveConfig writes the config as indented JSON.
func SaveConfig(cfg Config, path string) error {
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encoding config: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("scenario: writing %s: %w", path, err)
	}
	return nil
}
