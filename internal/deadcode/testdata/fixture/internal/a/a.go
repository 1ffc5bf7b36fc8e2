// Package a holds one declaration of each kind the reachability rule tells
// apart; TestRuleOnFixture pins how each is classified.
package a

// Used is called from cmd/app: reached.
func Used() {}

// OnlyOwnTest is called only by a test in this directory: unreached.
func OnlyOwnTest() {}

// OtherTest is called by a test in internal/b: reached.
func OtherTest() {}

// T is used by cmd/app: reached.
type T struct{}

// String is called by nothing but has fmt.Stringer's name and signature,
// and T is reached: reached.
func (T) String() string { return "t" }

// Scan has fmt.Scanner's name but not its signature: unreached.
func (T) Scan() {}

// Dead is called by nothing: unreached.
func Dead() { helper() }

// helper is called only from Dead: unreached.
func helper() {}

// Seam is called by nothing, but the allowlist names it: neither a finding
// nor stale, and what it calls is reached.
func Seam() { seamHelper() }

func seamHelper() {}

// A package-level var initialiser and an init function run at start-up:
// what they call is reached.
var _ = fromVar()

func fromVar() int { return 1 }

func init() { fromInit() }

func fromInit() {}
