#pragma once
// make_replay_program, which replays any CommSchedule on the runtime, lives
// in executors.hpp beside the executor it runs.

#include "collectives/executors.hpp"
