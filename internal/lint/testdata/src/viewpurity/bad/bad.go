package bad

import "dissenter/internal/platform"

// reindexer is a View whose handlers re-enter the write path: directly
// in Rebuild, and through a package helper from Apply.
type reindexer struct{}

func (reindexer) Apply(db *platform.DB, ev platform.Event) {
	writeBack(db)
}

func (reindexer) Rebuild(db *platform.DB) {
	db.RegisterView(reindexer{}) // want `DB\.RegisterView re-enters.*reachable from \(reindexer\)\.Rebuild`
}

func writeBack(db *platform.DB) {
	db.AddUser(nil) // want `DB\.AddUser re-enters.*reachable from \(reindexer\)\.Apply`
}
