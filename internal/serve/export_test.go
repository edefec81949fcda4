package serve

import "repro/internal/mapreduce"

// CachedBundles returns the bundles the summary cache holds for seg
// under query's schema key — the external test package's view of what
// a cold run cached.
func (s *Server) CachedBundles(query string, seg *mapreduce.Segment) (*Bundles, bool) {
	r := lookupRunner(query)
	if r == nil {
		return nil, false
	}
	return s.cache.Get(cacheKey{digest: seg.Digest(), schema: r.SchemaKey()})
}
