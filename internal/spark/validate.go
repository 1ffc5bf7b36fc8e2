package spark

import "fmt"

// ConfigError is the typed rejection for a nonsensical Config value.
// NewContext validates before applying any defaulting, so a
// misconfiguration surfaces at context construction instead of silently
// degrading a run.
type ConfigError struct {
	// Field names the offending Config field.
	Field string
	// Reason says what about its value cannot mean anything.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("spark: invalid Config.%s: %s", e.Field, e.Reason)
}

// Validate rejects values that cannot be an intent: adaptive execution
// without a positive per-task byte target (DefaultConfig carries one; an
// explicit zero or negative is a mistake). Zero otherwise means "use the
// default".
func (c Config) Validate() error {
	if c.AdaptiveExecution && c.AdaptiveTargetBytes <= 0 {
		return &ConfigError{Field: "AdaptiveTargetBytes",
			Reason: "adaptive execution needs a positive per-task byte target"}
	}
	return nil
}
