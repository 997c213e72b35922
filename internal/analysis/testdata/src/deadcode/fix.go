// Package fix is the facade: its exported functions and the exported
// method sets of the types it declares or re-exports are roots.
package fix

import "fix/internal/lib"

// Thing re-exports lib.Thing; its exported methods, including the ones
// promoted from lib.Base, are roots.
type Thing = lib.Thing

// Local is declared here; its exported methods are roots.
type Local struct{}

// Exported is part of the facade API.
func (Local) Exported() { lib.FromFacadeMethod() }

// hidden is not exported and nothing calls it.
func (Local) hidden() {}

// API is an exported facade function.
func API() int { return lib.FromFacade() }

// helper is not exported and nothing calls it.
func helper() {}
