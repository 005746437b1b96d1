package server

// SetFitHook installs a function every fit goroutine calls before it
// learns, so a test can hold a fit open. Call it before the first fit.
func (s *Server) SetFitHook(hook func()) { s.reg.fitHook = hook }
