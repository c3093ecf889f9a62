// Package unheld is a lint fixture that codegenPackages does not hold:
// codegen never disassembles it, so its pragma suppresses nothing and
// is a finding (asserted by TestPragmaHygiene).
package unheld

//lint:bce-ok a stray pragma in a package codegen does not hold
func stray() {}
