package gabcrawl

import (
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// Collect helpers over the platform.DB Range walks, for tests that
// want a whole-store slice.

func allUsers(db *platform.DB) []*platform.User {
	var out []*platform.User
	db.RangeUsers(func(u *platform.User) bool { out = append(out, u); return true })
	return out
}

func allFollows(db *platform.DB) map[ids.GabID][]ids.GabID {
	out := make(map[ids.GabID][]ids.GabID)
	db.RangeFollows(func(from ids.GabID, tos []ids.GabID) bool {
		out[from] = tos
		return true
	})
	return out
}
