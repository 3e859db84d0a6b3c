module p2drm/benchmark

go 1.22

require p2drm v0.0.0

replace p2drm => ../
