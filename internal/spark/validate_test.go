package spark

import (
	"errors"
	"testing"
	"time"
)

// TestConfigValidateRejects covers the nonsensical combinations Validate
// must reject, and that each rejection is the typed *ConfigError naming
// the offending field.
func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"negative heartbeat", func(c *Config) { c.HeartbeatInterval = -time.Millisecond }, "HeartbeatInterval"},
		{"negative executor timeout", func(c *Config) { c.ExecutorTimeout = -time.Second }, "ExecutorTimeout"},
		{"adaptive without target", func(c *Config) {
			c.AdaptiveExecution = true
			c.AdaptiveTargetBytes = 0
		}, "AdaptiveTargetBytes"},
		{"adaptive with negative target", func(c *Config) {
			c.AdaptiveExecution = true
			c.AdaptiveTargetBytes = -4096
		}, "AdaptiveTargetBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate returned %T, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

// TestConfigValidateAccepts checks that zero-means-default stays legal and
// that adaptive execution with an explicit target is accepted.
func TestConfigValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"defaults", func(c *Config) {}},
		{"zero config defaults later", func(c *Config) { *c = Config{} }},
		{"adaptive with explicit target", func(c *Config) {
			c.AdaptiveExecution = true
			c.AdaptiveTargetBytes = 1 << 20
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate rejected %s: %v", tc.name, err)
			}
		})
	}
}
